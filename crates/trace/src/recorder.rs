//! Per-process I/O recording (paper §III.B, Step 1).
//!
//! "We use one record to capture the information of each I/O access of a
//! process. ... We get this information in the I/O middleware layer for
//! MPI-IO applications, or I/O function libraries for ordinary POSIX
//! interface applications, to avoid the modification of applications."
//!
//! [`ProcessRecorder`] is the single-threaded building block;
//! [`SharedRecorder`] wraps it for concurrent use from many threads of one
//! process.

use bps_core::record::{FileId, IoOp, IoRecord, Layer, ProcessId};
use bps_core::time::Nanos;
use std::sync::{Arc, Mutex};

/// A begun-but-unfinished access, returned by [`ProcessRecorder::begin`].
#[derive(Debug, Clone, Copy)]
#[must_use = "finish the access with ProcessRecorder::end"]
pub struct PendingIo {
    op: IoOp,
    file: FileId,
    offset: u64,
    bytes: u64,
    start: Nanos,
}

/// Records the I/O accesses of one process.
#[derive(Debug)]
pub struct ProcessRecorder {
    pid: ProcessId,
    layer: Layer,
    records: Vec<IoRecord>,
}

impl ProcessRecorder {
    /// A recorder for `pid`, observing at the application layer.
    pub fn new(pid: ProcessId) -> Self {
        Self::at_layer(pid, Layer::Application)
    }

    /// A recorder observing at an explicit layer.
    pub fn at_layer(pid: ProcessId, layer: Layer) -> Self {
        ProcessRecorder {
            pid,
            layer,
            records: Vec::new(),
        }
    }

    /// Mark the start of an access.
    pub fn begin(&self, op: IoOp, file: FileId, offset: u64, bytes: u64, now: Nanos) -> PendingIo {
        PendingIo {
            op,
            file,
            offset,
            bytes,
            start: now,
        }
    }

    /// Complete an access begun earlier.
    pub fn end(&mut self, pending: PendingIo, now: Nanos) {
        self.records.push(IoRecord::new(
            self.pid,
            pending.op,
            pending.file,
            pending.offset,
            pending.bytes,
            pending.start,
            now,
            self.layer,
        ));
    }

    /// Record a complete access in one call.
    #[allow(clippy::too_many_arguments)]
    pub fn record(
        &mut self,
        op: IoOp,
        file: FileId,
        offset: u64,
        bytes: u64,
        start: Nanos,
        end: Nanos,
    ) {
        let p = self.begin(op, file, offset, bytes, start);
        self.end(p, end);
    }

    /// Number of records so far.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Drain the records (hand-off to a collector).
    pub fn drain(&mut self) -> Vec<IoRecord> {
        std::mem::take(&mut self.records)
    }

    /// Peek at the records.
    pub fn records(&self) -> &[IoRecord] {
        &self.records
    }
}

/// A thread-safe recorder shareable across the threads of one process.
#[derive(Debug, Clone)]
pub struct SharedRecorder {
    inner: Arc<Mutex<ProcessRecorder>>,
}

impl SharedRecorder {
    /// A shared recorder for `pid` at the application layer.
    pub fn new(pid: ProcessId) -> Self {
        SharedRecorder {
            inner: Arc::new(Mutex::new(ProcessRecorder::new(pid))),
        }
    }

    /// Record one complete access.
    #[allow(clippy::too_many_arguments)]
    pub fn record(
        &self,
        op: IoOp,
        file: FileId,
        offset: u64,
        bytes: u64,
        start: Nanos,
        end: Nanos,
    ) {
        self.inner
            .lock()
            .expect("recorder lock poisoned")
            .record(op, file, offset, bytes, start, end);
    }

    /// Number of records so far.
    pub fn len(&self) -> usize {
        self.inner.lock().expect("recorder lock poisoned").len()
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drain the records.
    pub fn drain(&self) -> Vec<IoRecord> {
        self.inner.lock().expect("recorder lock poisoned").drain()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn begin_end_roundtrip() {
        let mut r = ProcessRecorder::new(ProcessId(7));
        let p = r.begin(IoOp::Read, FileId(1), 0, 4096, Nanos::from_micros(10));
        r.end(p, Nanos::from_micros(35));
        assert_eq!(r.len(), 1);
        let rec = r.records()[0];
        assert_eq!(rec.pid, ProcessId(7));
        assert_eq!(rec.bytes, 4096);
        assert_eq!(rec.duration(), bps_core::time::Dur::from_micros(25));
        assert_eq!(rec.layer, Layer::Application);
    }

    #[test]
    fn drain_empties() {
        let mut r = ProcessRecorder::new(ProcessId(0));
        r.record(
            IoOp::Write,
            FileId(0),
            0,
            512,
            Nanos::ZERO,
            Nanos::from_micros(1),
        );
        let v = r.drain();
        assert_eq!(v.len(), 1);
        assert!(r.is_empty());
    }

    #[test]
    fn layer_override() {
        let mut r = ProcessRecorder::at_layer(ProcessId(0), Layer::FileSystem);
        r.record(
            IoOp::Read,
            FileId(0),
            0,
            512,
            Nanos::ZERO,
            Nanos::from_micros(1),
        );
        assert_eq!(r.records()[0].layer, Layer::FileSystem);
    }

    #[test]
    fn shared_recorder_across_threads() {
        let rec = SharedRecorder::new(ProcessId(3));
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let rec = rec.clone();
                s.spawn(move || {
                    for i in 0..100u64 {
                        rec.record(
                            IoOp::Read,
                            FileId(0),
                            (t * 100 + i) * 512,
                            512,
                            Nanos(i * 1000),
                            Nanos(i * 1000 + 500),
                        );
                    }
                });
            }
        });
        assert_eq!(rec.len(), 400);
        let v = rec.drain();
        assert_eq!(v.len(), 400);
        assert!(rec.is_empty());
    }
}
