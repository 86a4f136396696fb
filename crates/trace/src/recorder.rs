//! Per-process I/O recording (paper §III.B, Step 1).
//!
//! "We use one record to capture the information of each I/O access of a
//! process. ... We get this information in the I/O middleware layer for
//! MPI-IO applications, or I/O function libraries for ordinary POSIX
//! interface applications, to avoid the modification of applications."
//!
//! [`SharedRecorder`] collects one process's application-layer records,
//! from any number of its threads.

use bps_core::record::{FileId, IoOp, IoRecord, Layer, ProcessId};
use bps_core::time::Nanos;
use std::sync::{Arc, Mutex};

/// A thread-safe recorder of one process's application-layer accesses;
/// clones share the same records.
#[derive(Debug, Clone)]
pub struct SharedRecorder {
    pid: ProcessId,
    records: Arc<Mutex<Vec<IoRecord>>>,
}

impl SharedRecorder {
    /// A shared recorder for `pid` at the application layer.
    pub fn new(pid: ProcessId) -> Self {
        SharedRecorder {
            pid,
            records: Arc::default(),
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
        let record = IoRecord::new(
            self.pid,
            op,
            file,
            offset,
            bytes,
            start,
            end,
            Layer::Application,
        );
        self.records
            .lock()
            .expect("recorder lock poisoned")
            .push(record);
    }

    /// Drain the records (hand-off to a collector).
    pub fn drain(&self) -> Vec<IoRecord> {
        std::mem::take(&mut *self.records.lock().expect("recorder lock poisoned"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn drain_empties() {
        let r = SharedRecorder::new(ProcessId(7));
        r.record(IoOp::Read, FileId(1), 0, 4096, Nanos(10_000), Nanos(35_000));
        let v = r.drain();
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].pid, ProcessId(7));
        assert_eq!(v[0].bytes, 4096);
        assert_eq!(v[0].duration(), bps_core::time::Dur::from_micros(25));
        assert_eq!(v[0].layer, Layer::Application);
        assert!(r.drain().is_empty());
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
        assert_eq!(rec.drain().len(), 400);
        assert!(rec.drain().is_empty());
    }
}
