//! Bandwidth — data rate through the file system (paper §II).

use super::{Direction, MetricFold};
use crate::record::Layer;
use crate::sink::StreamingMetrics;

/// Bytes *actually moved* through the file system, divided by the overlapped
/// I/O time at that layer, in MB/s (1 MB = 10^6 bytes).
///
/// "The main difference is that bandwidth measures the performance of the
/// underlying file systems but BPS measures the performance of the I/O
/// systems." With data sieving enabled, the middleware reads file holes the
/// application never asked for: the file system moves more bytes and posts
/// a *higher* bandwidth while the application gets *slower* — the wrong-way
/// correlation of the paper's Figure 12 and Figure 1(b).
///
/// Traces with no file-system-layer records (plain application traces) fall
/// back to the application layer, where bandwidth is simply `BPS × 512`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Bandwidth;

/// Bytes per megabyte for bandwidth reporting.
const MB: f64 = 1e6;

impl Bandwidth {
    /// The layer bandwidth measures: the file system when it was
    /// instrumented, otherwise the application layer.
    ///
    /// **Fallback invariant**: when a stream carries no file-system-layer
    /// records, bandwidth measures the *same* bytes over the *same*
    /// overlapped time as BPS, so for 512-byte-aligned requests (where
    /// `bytes == blocks × 512` exactly) `BW × 10^6 == BPS × 512` up to the
    /// MB rescaling's rounding — the fallback degrades bandwidth into a
    /// rescaled BPS rather than silently reporting 0 MB/s for
    /// un-instrumented traces.
    pub fn measurement_layer(acc: &StreamingMetrics) -> Layer {
        if acc.op_count(Layer::FileSystem) > 0 {
            Layer::FileSystem
        } else {
            Layer::Application
        }
    }
}

impl MetricFold for Bandwidth {
    fn name(&self) -> &'static str {
        "BW"
    }

    fn expected_direction(&self) -> Direction {
        Direction::Negative
    }

    fn finish(&self, acc: &StreamingMetrics) -> Option<f64> {
        let layer = Bandwidth::measurement_layer(acc);
        let bytes = acc.bytes(layer);
        let t = acc.overlapped_io_time(layer);
        if acc.op_count(layer) == 0 || t.is_zero() {
            return None;
        }
        Some(bytes as f64 / MB / t.as_secs_f64())
    }

    fn unit(&self) -> &'static str {
        "MB/s"
    }

    fn describe(&self) -> &'static str {
        "bytes moved by the file system / overlapped FS I/O time"
    }

    fn col_label(&self) -> &'static str {
        "BW(MB/s)"
    }

    fn col_precision(&self) -> usize {
        2
    }

    fn csv_label(&self) -> &'static str {
        "bw_mbs"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{Bps, Metric};
    use crate::record::{FileId, IoOp, IoRecord, ProcessId};
    use crate::sink::RecordSink;
    use crate::time::Nanos;
    use crate::trace::Trace;

    fn rec(layer: Layer, bytes: u64, s_ms: u64, e_ms: u64) -> IoRecord {
        IoRecord::new(
            ProcessId(0),
            IoOp::Read,
            FileId(0),
            0,
            bytes,
            Nanos::from_millis(s_ms),
            Nanos::from_millis(e_ms),
            layer,
        )
    }

    #[test]
    fn measures_fs_layer_when_present() {
        let mut t = Trace::new();
        // App asked for 1 MB over 10 ms.
        t.push(rec(Layer::Application, 1_000_000, 0, 10));
        // Sieving moved 4 MB through the FS in the same window.
        t.push(rec(Layer::FileSystem, 4_000_000, 0, 10));
        let bw = Bandwidth.compute(&t).unwrap();
        assert!((bw - 400.0).abs() < 1e-6);
    }

    #[test]
    fn figure_1b_bandwidth_rewards_extra_movement() {
        // Left: FS moves exactly what the app needs (1 MB in 10 ms).
        let mut left = Trace::new();
        left.push(rec(Layer::Application, 1_000_000, 0, 10));
        left.push(rec(Layer::FileSystem, 1_000_000, 0, 10));
        // Right: same app demand and same 10 ms, but FS moved 2 MB.
        let mut right = Trace::new();
        right.push(rec(Layer::Application, 1_000_000, 0, 10));
        right.push(rec(Layer::FileSystem, 2_000_000, 0, 10));

        // Bandwidth says "right is twice as good"...
        let bl = Bandwidth.compute(&left).unwrap();
        let br = Bandwidth.compute(&right).unwrap();
        assert!(br > 1.9 * bl);
        // ...while the overall I/O performance seen by the app is unchanged:
        // BPS is identical.
        let pl = Bps.compute(&left).unwrap();
        let pr = Bps.compute(&right).unwrap();
        assert!((pl - pr).abs() < 1e-9);
    }

    #[test]
    fn falls_back_to_app_layer() {
        let t = Trace::from_records(vec![rec(Layer::Application, 2_000_000, 0, 10)]);
        let bw = Bandwidth.compute(&t).unwrap();
        assert!((bw - 200.0).abs() < 1e-6);
    }

    #[test]
    fn fallback_layer_choice_is_explicit() {
        let mut acc = StreamingMetrics::default();
        acc.on_record(&rec(Layer::Application, 2_000_000, 0, 10));
        assert_eq!(Bandwidth::measurement_layer(&acc), Layer::Application);
        acc.on_record(&rec(Layer::FileSystem, 2_000_000, 0, 10));
        assert_eq!(Bandwidth::measurement_layer(&acc), Layer::FileSystem);
    }

    #[test]
    fn fallback_equals_bps_times_block_size() {
        // The documented invariant: with no FS records and 512-aligned
        // requests, BW × 10^6 == BPS × 512 — both divide the same integer
        // byte/block sums by the same overlapped time (they differ only by
        // the MB rescaling, so agreement is to the last couple of ulps).
        let t = Trace::from_records(vec![
            rec(Layer::Application, 512 * 1000, 0, 10),
            rec(Layer::Application, 512 * 4096, 7, 23),
            rec(Layer::Application, 512 * 17, 40, 41),
        ]);
        let bw = Bandwidth.compute(&t).unwrap();
        let bps = Bps.compute(&t).unwrap();
        let (a, b) = (bw * 1e6, bps * 512.0);
        assert!((a - b).abs() <= 1e-12 * a.abs(), "{a} vs {b}");
    }

    #[test]
    fn empty_is_none() {
        assert!(Bandwidth.compute(&Trace::new()).is_none());
    }
}
