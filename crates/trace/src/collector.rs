//! Gathering per-process records into the global collection (paper §III.B,
//! Step 2).
//!
//! "We collect the I/O access information of all processes to have a
//! comprehensive knowledge of the performance of the overall I/O system."
//!
//! Two styles: batch (drain each recorder at the end of the run) and
//! streaming (worker threads push records through a channel while the run
//! is still going — the paper's note that "this calculation can be
//! overlapped with data accesses").

use bps_core::record::IoRecord;
use bps_core::trace::Trace;
use std::sync::mpsc::{channel, Receiver, Sender};

/// Batch collector: accumulate record batches, produce the final
/// [`Trace`].
#[derive(Debug, Default)]
pub struct Collector {
    records: Vec<IoRecord>,
}

impl Collector {
    /// An empty collector.
    pub fn new() -> Self {
        Collector::default()
    }

    /// Absorb one process's drained records.
    pub fn add_process(&mut self, records: Vec<IoRecord>) {
        self.records.extend(records);
    }

    /// Number of records gathered so far.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True when nothing has been gathered.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Produce the global trace, sorted by start time (the first half of
    /// the paper's Figure 3 algorithm).
    pub fn into_trace(self) -> Trace {
        let mut t = Trace::from_records(self.records);
        t.sort_by_start();
        t
    }
}

/// A streaming collector: hand [`StreamSender`]s to worker threads, then
/// call [`StreamCollector::finish`] once all senders are dropped.
#[derive(Debug)]
pub struct StreamCollector {
    rx: Receiver<IoRecord>,
    tx: Option<Sender<IoRecord>>,
}

/// The sending side of a [`StreamCollector`].
pub type StreamSender = Sender<IoRecord>;

impl StreamCollector {
    /// Create the channel-backed collector.
    pub fn new() -> Self {
        let (tx, rx) = channel();
        StreamCollector { rx, tx: Some(tx) }
    }

    /// A sender for one worker/process.
    pub fn sender(&self) -> StreamSender {
        self.tx.as_ref().expect("collector not finished").clone()
    }

    /// Close the intake and gather everything sent.
    pub fn finish(mut self) -> Trace {
        // Drop our own sender so the channel drains.
        self.tx = None;
        let mut t = Trace::from_records(self.rx.iter().collect());
        t.sort_by_start();
        t
    }
}

impl Default for StreamCollector {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bps_core::record::{FileId, IoOp, Layer, ProcessId};
    use bps_core::time::Nanos;

    fn rec(pid: u32, start_us: u64) -> IoRecord {
        IoRecord::new(
            ProcessId(pid),
            IoOp::Read,
            FileId(0),
            0,
            512,
            Nanos::from_micros(start_us),
            Nanos::from_micros(start_us + 10),
            Layer::Application,
        )
    }

    /// Distinct processes at the application layer.
    fn app_pid_count(t: &Trace) -> usize {
        let pids: std::collections::BTreeSet<_> =
            t.layer(Layer::Application).map(|r| r.pid).collect();
        pids.len()
    }

    #[test]
    fn batch_collection_merges_and_sorts() {
        let mut c = Collector::new();
        c.add_process(vec![rec(0, 100), rec(0, 300)]);
        c.add_process(vec![rec(1, 50), rec(1, 200)]);
        assert_eq!(c.len(), 4);
        let t = c.into_trace();
        let starts: Vec<_> = t.records().iter().map(|r| r.start).collect();
        assert!(starts.windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(app_pid_count(&t), 2);
    }

    #[test]
    fn empty_collector_is_empty_trace() {
        let c = Collector::new();
        assert!(c.is_empty());
        assert!(c.into_trace().is_empty());
    }

    #[test]
    fn streaming_collection_from_threads() {
        let collector = StreamCollector::new();
        std::thread::scope(|s| {
            for pid in 0..4u32 {
                let tx = collector.sender();
                s.spawn(move || {
                    for i in 0..50u64 {
                        tx.send(rec(pid, i * 10)).unwrap();
                    }
                });
            }
        });
        let t = collector.finish();
        assert_eq!(t.len(), 200);
        assert_eq!(app_pid_count(&t), 4);
        // Sorted by start.
        let starts: Vec<_> = t.records().iter().map(|r| r.start).collect();
        assert!(starts.windows(2).all(|w| w[0] <= w[1]));
    }
}
