//! ARPT — Average ResPonse Time (paper §II).

use super::{Direction, MetricFold};
use crate::record::Layer;
use crate::sink::StreamingMetrics;

/// The arithmetic mean of all application I/O request response times, in
/// seconds.
///
/// "As ARPT does not consider the I/O access concurrency, it is also not
/// suitable to measure the performance of the overall I/O systems": in the
/// paper's Figure 1(c), two sequential requests and two fully concurrent
/// requests have the same ARPT `T`, even though the concurrent case finishes
/// in half the wall time. Figures 9–11 show ARPT correlating in the wrong
/// direction once concurrency varies.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Arpt;

impl MetricFold for Arpt {
    fn name(&self) -> &'static str {
        "ARPT"
    }

    fn expected_direction(&self) -> Direction {
        Direction::Positive
    }

    fn finish(&self, acc: &StreamingMetrics) -> Option<f64> {
        let ops = acc.op_count(Layer::Application);
        if ops == 0 {
            return None;
        }
        let summed = acc.summed_io_time(Layer::Application);
        Some(summed.as_secs_f64() / ops as f64)
    }

    fn unit(&self) -> &'static str {
        "s"
    }

    fn describe(&self) -> &'static str {
        "mean application request response time"
    }

    fn col_label(&self) -> &'static str {
        "ARPT(s)"
    }

    fn col_precision(&self) -> usize {
        6
    }

    fn csv_label(&self) -> &'static str {
        "arpt_s"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{Bps, Metric};
    use crate::record::{FileId, IoRecord, ProcessId};
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
    fn figure_1c_arpt_blind_to_concurrency() {
        // Sequential: R1=[0,10), R2=[10,20). Concurrent: both [0,10).
        let sequential = Trace::from_records(vec![read(0, 0, 10), read(0, 10, 20)]);
        let concurrent = Trace::from_records(vec![read(0, 0, 10), read(1, 0, 10)]);

        let a_seq = Arpt.compute(&sequential).unwrap();
        let a_con = Arpt.compute(&concurrent).unwrap();
        // Same ARPT = T = 10 ms...
        assert!((a_seq - a_con).abs() < 1e-12);
        assert!((a_seq - 0.010).abs() < 1e-12);

        // ...but BPS sees the concurrent case running twice as fast.
        let b_seq = Bps.compute(&sequential).unwrap();
        let b_con = Bps.compute(&concurrent).unwrap();
        assert!((b_con / b_seq - 2.0).abs() < 1e-9);
    }

    #[test]
    fn arithmetic_mean() {
        let t = Trace::from_records(vec![read(0, 0, 10), read(0, 10, 40)]);
        assert!((Arpt.compute(&t).unwrap() - 0.020).abs() < 1e-12);
    }

    #[test]
    fn empty_is_none() {
        assert!(Arpt.compute(&Trace::new()).is_none());
    }
}
