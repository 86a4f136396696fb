//! Time-windowed metric series.
//!
//! A single BPS number summarizes a whole run; phase-structured
//! applications (compute/I/O bursts) also want the metric *over time*.
//! [`windowed_series`] slices a trace into fixed windows and evaluates the
//! metrics within each, clipping in-flight records at window edges so a
//! request spanning windows contributes its overlap to each.

use crate::interval::{Interval, IntervalSet};
use crate::record::{IoRecord, Layer};
use crate::sink::RecordSink;
use crate::time::{Dur, Nanos};
use crate::trace::Trace;
use serde::Serialize;
use std::collections::VecDeque;

/// One window's worth of activity.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct WindowPoint {
    /// Window start.
    pub start: Nanos,
    /// Window length.
    pub len: Dur,
    /// Blocks whose transfer overlapped this window, prorated by time
    /// overlap.
    pub blocks: f64,
    /// Overlapped I/O time within the window.
    pub io_time: Dur,
    /// BPS within the window (`None` when no I/O was in flight).
    pub bps: Option<f64>,
    /// Requests active at any point in the window.
    pub active_requests: u64,
}

/// Slice the application layer of a trace into `window`-sized buckets.
///
/// A record overlapping a window contributes (a) its in-flight interval
/// clipped to the window for `io_time`, and (b) its blocks prorated by the
/// clipped fraction of its duration (an instantaneous record contributes
/// all its blocks to the window containing it).
///
/// The trace is replayed behind its own watermark ([`Trace::replay`]).
/// Each window unions its clipped intervals in its own [`IntervalSet`];
/// once the watermark passes a window's end no later record can reach it,
/// so the window is sealed, its `io_time` taken and its spans freed. Only
/// the windows the busy frontier touches hold spans.
///
/// ```
/// use bps_core::prelude::*;
/// use bps_core::window::windowed_series;
/// let trace = Trace::from_records(vec![IoRecord::app_read(
///     ProcessId(0), FileId(0), 0, 512 * 100,
///     Nanos::ZERO, Nanos::from_millis(20),
/// )]);
/// let series = windowed_series(&trace, Dur::from_millis(10));
/// assert_eq!(series.len(), 2);
/// // Half the blocks land in each 10 ms window.
/// assert!((series[0].blocks - 50.0).abs() < 1e-9);
/// ```
pub fn windowed_series(trace: &Trace, window: Dur) -> Vec<WindowPoint> {
    assert!(!window.is_zero(), "window must be positive");
    let (first, last) = match (trace.first_start(), trace.last_end()) {
        (Some(f), Some(l)) => (f, l),
        _ => return Vec::new(),
    };
    let span = last - first;
    let buckets = (span.0.div_ceil(window.0)).max(1) as usize;
    let mut fold = WindowFold {
        first,
        window,
        points: (0..buckets)
            .map(|i| WindowPoint {
                start: first + window * i as u64,
                len: window,
                blocks: 0.0,
                io_time: Dur::ZERO,
                bps: None,
                active_requests: 0,
            })
            .collect(),
        sealed: 0,
        open: VecDeque::new(),
    };
    trace.replay(&mut fold);
    fold.seal_through(buckets);
    fold.points
}

/// The windowed series as a sink: every window before `sealed` is final;
/// `open[i]` unions the clipped intervals of window `sealed + i`.
struct WindowFold {
    first: Nanos,
    window: Dur,
    points: Vec<WindowPoint>,
    sealed: usize,
    open: VecDeque<IntervalSet>,
}

impl WindowFold {
    /// Instant window `b` ends. A window reaching past the last
    /// representable instant ends there.
    fn end_of(&self, b: usize) -> Nanos {
        Nanos(self.points[b].start.0.saturating_add(self.window.0))
    }

    /// Take the `io_time` of every window before `b` and free its spans.
    fn seal_through(&mut self, b: usize) {
        while self.sealed < b {
            let union = self.open.pop_front().unwrap_or_default();
            let point = &mut self.points[self.sealed];
            point.io_time = union.total();
            if !point.io_time.is_zero() {
                point.bps = Some(point.blocks / point.io_time.as_secs_f64());
            }
            self.sealed += 1;
        }
    }
}

impl RecordSink for WindowFold {
    fn on_record(&mut self, r: &IoRecord) {
        if r.layer != Layer::Application {
            return;
        }
        let buckets = self.points.len();
        let dur = r.duration();
        let b_first = ((r.start - self.first).0 / self.window.0) as usize;
        let b_last = if r.end > r.start {
            (((r.end - self.first).0 - 1) / self.window.0) as usize
        } else {
            b_first
        };
        for b in b_first..(b_last + 1).min(buckets) {
            let clip = Interval {
                start: r.start.max(self.points[b].start),
                end: r.end.min(self.end_of(b)),
            };
            let point = &mut self.points[b];
            point.active_requests += 1;
            if dur.is_zero() {
                // Instantaneous record: all blocks land here.
                point.blocks += r.blocks() as f64;
            } else {
                let frac = clip.duration().as_secs_f64() / dur.as_secs_f64();
                point.blocks += r.blocks() as f64 * frac;
                // The watermark sealed only windows ending before it,
                // and this record starts at or after it.
                let i = b - self.sealed;
                if i >= self.open.len() {
                    self.open.resize_with(i + 1, IntervalSet::new);
                }
                self.open[i].insert(clip);
            }
        }
    }

    /// Seal every window ending before `t`, and drop the spans that ended
    /// before `t` from the first still open, the only one that can hold
    /// any. A window ending at `t` stays open: it may be one clamped at
    /// the last instant, which a record at `t` still reaches.
    fn on_watermark(&mut self, t: Nanos) {
        let mut b = self.sealed;
        while b < self.points.len() && self.end_of(b) < t {
            b += 1;
        }
        self.seal_through(b);
        if let Some(front) = self.open.front_mut() {
            front.forget_before(t);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::{FileId, IoRecord, ProcessId};

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
    fn empty_trace_empty_series() {
        assert!(windowed_series(&Trace::new(), Dur::from_millis(10)).is_empty());
    }

    #[test]
    fn single_record_single_window() {
        let t = Trace::from_records(vec![read(512 * 100, 0, 10)]);
        let s = windowed_series(&t, Dur::from_millis(10));
        assert_eq!(s.len(), 1);
        assert!((s[0].blocks - 100.0).abs() < 1e-9);
        assert_eq!(s[0].io_time, Dur::from_millis(10));
        assert!((s[0].bps.unwrap() - 100.0 / 0.010).abs() < 1e-6);
    }

    #[test]
    fn record_spanning_windows_is_prorated() {
        // 20 ms record over two 10 ms windows: half the blocks each.
        let t = Trace::from_records(vec![read(512 * 100, 0, 20)]);
        let s = windowed_series(&t, Dur::from_millis(10));
        assert_eq!(s.len(), 2);
        assert!((s[0].blocks - 50.0).abs() < 1e-9);
        assert!((s[1].blocks - 50.0).abs() < 1e-9);
        // Each window is fully busy.
        assert_eq!(s[0].io_time, Dur::from_millis(10));
        assert_eq!(s[1].io_time, Dur::from_millis(10));
        // Window BPS equals whole-run BPS for a uniform transfer.
        let whole = 100.0 / 0.020;
        assert!((s[0].bps.unwrap() - whole).abs() < 1e-6);
    }

    #[test]
    fn idle_windows_have_no_bps() {
        // Burst, 30 ms idle, burst.
        let t = Trace::from_records(vec![read(512 * 10, 0, 10), read(512 * 10, 40, 50)]);
        let s = windowed_series(&t, Dur::from_millis(10));
        assert_eq!(s.len(), 5);
        assert!(s[0].bps.is_some());
        assert!(s[1].bps.is_none() && s[2].bps.is_none() && s[3].bps.is_none());
        assert!(s[4].bps.is_some());
        // Total prorated blocks conserve the trace's blocks.
        let total: f64 = s.iter().map(|p| p.blocks).sum();
        assert!((total - 20.0).abs() < 1e-9);
    }

    #[test]
    fn blocks_conserved_under_any_window() {
        let t = Trace::from_records(vec![
            read(512 * 7, 0, 13),
            read(512 * 11, 5, 29),
            read(512 * 3, 40, 41),
        ]);
        for w_ms in [1u64, 3, 10, 100] {
            let s = windowed_series(&t, Dur::from_millis(w_ms));
            let total: f64 = s.iter().map(|p| p.blocks).sum();
            assert!((total - 21.0).abs() < 1e-6, "window {w_ms} ms: {total}");
        }
    }

    #[test]
    fn concurrent_requests_counted_once_in_io_time() {
        let t = Trace::from_records(vec![read(512, 0, 10), read(512, 0, 10)]);
        let s = windowed_series(&t, Dur::from_millis(10));
        assert_eq!(s[0].io_time, Dur::from_millis(10));
        assert_eq!(s[0].active_requests, 2);
    }

    #[test]
    fn window_past_the_last_instant_is_one_bucket() {
        let t = Trace::from_records(vec![read(512, 5, 10), read(512, 8, 20)]);
        let s = windowed_series(&t, Dur(u64::MAX - 1));
        assert_eq!(s.len(), 1);
        assert_eq!(s[0].io_time, Dur::from_millis(15));
        assert_eq!(s[0].active_requests, 2);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_window_rejected() {
        let t = Trace::from_records(vec![read(512, 0, 1)]);
        windowed_series(&t, Dur::ZERO);
    }
}
