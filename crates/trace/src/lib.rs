//! # bps-trace — the BPS measurement toolkit
//!
//! The paper's conclusion promises to "make BPS an easy-to-use toolkit and
//! release it to the public". This crate is that toolkit:
//!
//! * [`recorder`] — per-process recording of I/O accesses (paper §III.B
//!   Step 1), shared by the threads of one process.
//! * Gathering all processes' records into the global collection (Step 2)
//!   is [`bps_core::trace::Trace::from_records`] over the drained
//!   recorders followed by [`bps_core::trace::Trace::sort_by_start`], as
//!   [`realfile::trace_session`] does.
//! * [`format`] — trace persistence: human-readable JSON and the compact
//!   32-byte-per-record binary format whose size the paper's overhead
//!   analysis assumes ("as the size of each record is 32 bytes, even for
//!   65535 I/O operations, all the records need about 3 megabytes").
//! * [`realfile`] — [`realfile::TracedFile`], a wrapper around
//!   [`std::fs::File`] that records every read/write with wall-clock
//!   timestamps, so the BPS of *real* I/O can be measured, not only
//!   simulated I/O.
//! * [`validate`] — sanity checks on loaded traces (coarse clocks,
//!   impossible overlaps, missing layers) before metrics are trusted.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod format;
pub mod realfile;
pub mod recorder;
pub mod validate;

pub use recorder::SharedRecorder;

/// Step 2 (gathering) has no type of its own: it is
/// [`bps_core::trace::Trace::from_records`] over the drained recorders and
/// [`bps_core::trace::Trace::sort_by_start`]. These tests pin that
/// composition.
#[cfg(test)]
mod collector {
    mod tests {
        use crate::SharedRecorder;
        use bps_core::record::{FileId, IoOp, Layer, ProcessId};
        use bps_core::time::Nanos;
        use bps_core::trace::Trace;

        fn recorder(pid: u32, starts_us: &[u64]) -> SharedRecorder {
            let r = SharedRecorder::new(ProcessId(pid));
            for &s in starts_us {
                r.record(
                    IoOp::Read,
                    FileId(0),
                    0,
                    512,
                    Nanos(s * 1_000),
                    Nanos((s + 10) * 1_000),
                );
            }
            r
        }

        #[test]
        fn batch_collection_merges_and_sorts() {
            let procs = [recorder(0, &[100, 300]), recorder(1, &[50, 200])];
            let records: Vec<_> = procs.iter().flat_map(|r| r.drain()).collect();
            assert_eq!(records.len(), 4);
            let mut t = Trace::from_records(records);
            t.sort_by_start();
            let starts: Vec<_> = t.records().iter().map(|r| r.start.0).collect();
            assert_eq!(starts, vec![50_000, 100_000, 200_000, 300_000]);
            let pids: std::collections::BTreeSet<_> =
                t.layer(Layer::Application).map(|r| r.pid).collect();
            assert_eq!(pids.len(), 2);
            assert!(procs.iter().all(|r| r.drain().is_empty()));
        }
    }
}
