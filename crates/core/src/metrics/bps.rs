//! BPS — Blocks Per Second, the paper's contribution (equation (1)).

use super::{Direction, MetricFold};
use crate::record::Layer;
use crate::sink::StreamingMetrics;

/// `BPS = B / T` where `B` is the number of 512-byte blocks *required by the
/// application* (all accesses counted, successful or not, concurrent or not)
/// and `T` is the overlapped I/O access time: the union of all in-flight
/// intervals, excluding idle periods (paper Figure 2).
///
/// Two properties distinguish BPS from the conventional metrics:
///
/// * the numerator counts what the application *asked for*, so extra data
///   movement injected by optimizations (data sieving holes, prefetch
///   overshoot) does not inflate it the way it inflates bandwidth;
/// * the denominator counts wall time only while I/O is in flight and counts
///   overlapping accesses once, so concurrency shows up as *more blocks in
///   the same time* rather than being averaged away as in ARPT.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Bps;

impl MetricFold for Bps {
    fn name(&self) -> &'static str {
        "BPS"
    }

    fn expected_direction(&self) -> Direction {
        Direction::Negative
    }

    fn finish(&self, acc: &StreamingMetrics) -> Option<f64> {
        let blocks = acc.blocks(Layer::Application);
        let t = acc.overlapped_io_time(Layer::Application);
        if acc.op_count(Layer::Application) == 0 || t.is_zero() {
            return None;
        }
        Some(blocks as f64 / t.as_secs_f64())
    }

    fn unit(&self) -> &'static str {
        "blocks/s"
    }

    fn describe(&self) -> &'static str {
        "required 512 B blocks / overlapped app I/O time (the paper's metric)"
    }

    fn col_precision(&self) -> usize {
        1
    }

    fn csv_label(&self) -> &'static str {
        "bps"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::Metric;
    use crate::record::{FileId, IoRecord, ProcessId};
    use crate::time::Nanos;
    use crate::trace::Trace;

    fn read(pid: u32, bytes: u64, s_ms: u64, e_ms: u64) -> IoRecord {
        IoRecord::app_read(
            ProcessId(pid),
            FileId(0),
            0,
            bytes,
            Nanos::from_millis(s_ms),
            Nanos::from_millis(e_ms),
        )
    }

    #[test]
    fn sequential_requests_sum_time() {
        // Two 512 KiB reads back to back over 2 x 10 ms.
        let t = Trace::from_records(vec![read(0, 512 << 10, 0, 10), read(0, 512 << 10, 10, 20)]);
        let v = Bps.compute(&t).unwrap();
        assert!((v - 2048.0 / 0.020).abs() < 1e-6);
    }

    #[test]
    fn concurrency_counted_once() {
        // The same two reads fully overlapped: double the rate.
        let t = Trace::from_records(vec![read(0, 512 << 10, 0, 10), read(1, 512 << 10, 0, 10)]);
        let v = Bps.compute(&t).unwrap();
        assert!((v - 2048.0 / 0.010).abs() < 1e-6);
    }

    #[test]
    fn idle_time_excluded() {
        // 10 ms busy, 80 ms idle, 10 ms busy: denominator is 20 ms.
        let t = Trace::from_records(vec![read(0, 512 << 10, 0, 10), read(0, 512 << 10, 90, 100)]);
        let v = Bps.compute(&t).unwrap();
        assert!((v - 2048.0 / 0.020).abs() < 1e-6);
    }

    #[test]
    fn split_invariance_paper_fig_1a() {
        // Figure 1(a): one 2S request in time T vs two S requests in T/2
        // each, back to back. BPS is identical; IOPS is not.
        let merged = Trace::from_records(vec![read(0, 1 << 20, 0, 10)]);
        let split = Trace::from_records(vec![read(0, 512 << 10, 0, 5), read(0, 512 << 10, 5, 10)]);
        let a = Bps.compute(&merged).unwrap();
        let b = Bps.compute(&split).unwrap();
        assert!((a - b).abs() < 1e-6);
    }

    #[test]
    fn none_when_zero_time() {
        // A degenerate instantaneous record: T = 0 ⇒ undefined.
        let t = Trace::from_records(vec![read(0, 512, 5, 5)]);
        assert!(Bps.compute(&t).is_none());
        assert!(Bps.compute(&Trace::new()).is_none());
    }

    #[test]
    fn fs_layer_records_do_not_affect_bps() {
        use crate::record::{IoOp, Layer};
        let mut t = Trace::from_records(vec![read(0, 1 << 20, 0, 10)]);
        let before = Bps.compute(&t).unwrap();
        // Sieving moved 4x the data at the FS layer.
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
        assert_eq!(Bps.compute(&t).unwrap(), before);
    }
}
