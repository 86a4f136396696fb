//! IOPS — Input/Output Operations Per Second (paper §II).

use super::{Direction, MetricFold};
use crate::record::Layer;
use crate::sink::StreamingMetrics;

/// Number of application I/O operations divided by the overlapped I/O time.
///
/// IOPS "works well to evaluate I/O performance for fixed-size I/O requests"
/// but ignores request sizes entirely: in the paper's Figure 1(a), two small
/// requests served in 2T score the same IOPS as one doubled request served
/// in T, even though the latter halves the I/O time. Figure 7 shows the
/// consequence: growing the record size from 4 KB to 64 KB drops IOPS from
/// 5156 to 732 while the application runs 2.3× *faster*.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Iops;

impl MetricFold for Iops {
    fn name(&self) -> &'static str {
        "IOPS"
    }

    fn expected_direction(&self) -> Direction {
        Direction::Negative
    }

    fn finish(&self, acc: &StreamingMetrics) -> Option<f64> {
        let ops = acc.op_count(Layer::Application);
        let t = acc.overlapped_io_time(Layer::Application);
        if ops == 0 || t.is_zero() {
            return None;
        }
        Some(ops as f64 / t.as_secs_f64())
    }

    fn unit(&self) -> &'static str {
        "ops/s"
    }

    fn describe(&self) -> &'static str {
        "application operations / overlapped app I/O time"
    }

    fn col_precision(&self) -> usize {
        1
    }

    fn csv_label(&self) -> &'static str {
        "iops"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::Metric;
    use crate::record::{FileId, IoRecord, ProcessId};
    use crate::time::Nanos;
    use crate::trace::Trace;

    fn read(bytes: u64, s_ms: u64, e_ms: u64) -> IoRecord {
        IoRecord::app_read(
            ProcessId(0),
            FileId(0),
            0,
            bytes,
            Nanos::from_millis(s_ms),
            Nanos::from_millis(e_ms),
        )
    }

    #[test]
    fn figure_1a_iops_blind_to_size() {
        // Left: two size-S requests, T each, sequential → 2 ops / 2T.
        let left = Trace::from_records(vec![read(4096, 0, 10), read(4096, 10, 20)]);
        // Right: one size-2S request in T → 1 op / T.
        let right = Trace::from_records(vec![read(8192, 0, 10)]);
        let l = Iops.compute(&left).unwrap();
        let r = Iops.compute(&right).unwrap();
        // Identical IOPS (1/T = 100/s) despite the right case finishing in
        // half the time — the paper's mismatch.
        assert!((l - r).abs() < 1e-9);
        assert!((l - 100.0).abs() < 1e-9);
    }

    #[test]
    fn counts_all_ops_per_second() {
        let t = Trace::from_records(vec![read(1, 0, 1), read(1, 1, 2), read(1, 2, 4)]);
        assert!((Iops.compute(&t).unwrap() - 3.0 / 0.004).abs() < 1e-6);
    }

    #[test]
    fn empty_is_none() {
        assert!(Iops.compute(&Trace::new()).is_none());
    }
}
