//! Trace replay: turn a recorded [`Trace`] back into per-process op
//! streams.
//!
//! This closes the toolkit loop: record a real application with
//! `bps-trace`, then replay its access pattern through the simulated I/O
//! stack to ask what-if questions ("would this app be faster on the SSD?
//! with 8 I/O servers?") — scoring each configuration by BPS.
//!
//! Replay preserves each process's operation order, sizes, offsets, and
//! the *think time* between consecutive operations (the gap between one
//! op's end and the next op's start becomes an [`AppOp::Compute`]).
//! Service times are discarded — the simulated stack supplies its own.

use crate::spec::{AppOp, OpStream, Workload};
use bps_core::extent::Extent;
use bps_core::record::{IoOp, IoRecord, Layer, ProcessId};
use bps_core::trace::Trace;
use std::collections::BTreeMap;
use std::fmt;

/// A replayable workload distilled from a recorded trace.
#[derive(Debug, Clone)]
pub struct Replay {
    /// Per-process op sequences, in original start order.
    per_process: Vec<Vec<AppOp>>,
    /// File sizes inferred from the highest access end per file.
    file_sizes: Vec<u64>,
}

/// An application record whose extent ends past `u64::MAX`: no file size
/// can hold it, so the trace cannot be replayed.
#[derive(Debug, Clone, PartialEq)]
pub struct ExtentOverflow {
    /// Position of the record in the trace.
    pub index: usize,
    /// The record.
    pub record: IoRecord,
}

impl fmt::Display for ExtentOverflow {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let r = &self.record;
        write!(
            f,
            "record {} (pid {}, file {}, offset {}, {} bytes) ends past byte 2^64 - 1",
            self.index, r.pid.0, r.file.0, r.offset, r.bytes
        )
    }
}

impl std::error::Error for ExtentOverflow {}

impl Replay {
    /// Distill the application layer of a trace. File ids are compacted
    /// into a dense index space; think times below `min_think_ns` are
    /// dropped (back-to-back ops). Fails on the first record whose extent
    /// overflows `u64`.
    pub fn from_trace(trace: &Trace) -> Result<Replay, ExtentOverflow> {
        const MIN_THINK_NS: u64 = 1_000;
        // Dense file index mapping and size inference.
        let mut file_index: BTreeMap<u32, usize> = BTreeMap::new();
        let mut file_sizes: Vec<u64> = Vec::new();
        let mut per_pid: BTreeMap<ProcessId, Vec<&IoRecord>> = BTreeMap::new();
        let app = trace.records().iter().enumerate();
        for (index, r) in app.filter(|(_, r)| r.layer == Layer::Application) {
            let end = r
                .offset
                .checked_add(r.bytes)
                .ok_or(ExtentOverflow { index, record: *r })?;
            let idx = *file_index.entry(r.file.0).or_insert_with(|| {
                file_sizes.push(0);
                file_sizes.len() - 1
            });
            file_sizes[idx] = file_sizes[idx].max(end);
            per_pid.entry(r.pid).or_default().push(r);
        }
        let per_process = per_pid
            .into_values()
            .map(|mut records| {
                records.sort_by_key(|r| (r.start, r.end));
                let mut ops = Vec::with_capacity(records.len() * 2);
                let mut last_end = None;
                for r in records {
                    if let Some(prev) = last_end {
                        let gap = r.start.since(prev);
                        if gap.0 >= MIN_THINK_NS {
                            ops.push(AppOp::Compute { dur: gap });
                        }
                    }
                    last_end = Some(r.end.max(last_end.unwrap_or(r.end)));
                    let file = file_index[&r.file.0];
                    let extent = Extent::new(r.offset, r.bytes);
                    ops.push(match r.op {
                        IoOp::Read => AppOp::Read { file, extent },
                        IoOp::Write => AppOp::Write { file, extent },
                    });
                }
                ops
            })
            .collect();
        Ok(Replay {
            per_process,
            file_sizes,
        })
    }
}

impl Workload for Replay {
    fn name(&self) -> &'static str {
        "replay"
    }

    fn processes(&self) -> usize {
        self.per_process.len()
    }

    fn file_sizes(&self) -> Vec<u64> {
        self.file_sizes.clone()
    }

    fn stream(&self, pid: usize) -> OpStream {
        Box::new(self.per_process[pid].clone().into_iter())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bps_core::record::FileId;
    use bps_core::time::{Dur, Nanos};

    fn rec(pid: u32, file: u32, offset: u64, bytes: u64, s_us: u64, e_us: u64) -> IoRecord {
        IoRecord::new(
            ProcessId(pid),
            IoOp::Read,
            FileId(file),
            offset,
            bytes,
            Nanos(s_us * 1_000),
            Nanos(e_us * 1_000),
            Layer::Application,
        )
    }

    #[test]
    fn preserves_order_sizes_and_offsets() {
        let t = Trace::from_records(vec![
            rec(0, 5, 0, 4096, 0, 100),
            rec(0, 5, 4096, 8192, 100, 250),
        ]);
        let r = Replay::from_trace(&t).unwrap();
        assert_eq!(r.processes(), 1);
        assert_eq!(r.file_sizes(), vec![4096 + 8192]);
        let ops: Vec<AppOp> = r.stream(0).collect();
        assert_eq!(
            ops,
            vec![
                AppOp::Read {
                    file: 0,
                    extent: Extent::new(0, 4096)
                },
                AppOp::Read {
                    file: 0,
                    extent: Extent::new(4096, 8192)
                },
            ]
        );
    }

    #[test]
    fn think_time_becomes_compute() {
        let t = Trace::from_records(vec![
            rec(0, 1, 0, 512, 0, 100),
            rec(0, 1, 512, 512, 600, 700), // 500 us gap
        ]);
        let r = Replay::from_trace(&t).unwrap();
        let ops: Vec<AppOp> = r.stream(0).collect();
        assert_eq!(ops.len(), 3);
        assert_eq!(
            ops[1],
            AppOp::Compute {
                dur: Dur::from_micros(500)
            }
        );
    }

    #[test]
    fn processes_split_and_files_compact() {
        let t = Trace::from_records(vec![
            rec(3, 100, 0, 512, 0, 10),
            rec(7, 200, 0, 1024, 0, 10),
        ]);
        let r = Replay::from_trace(&t).unwrap();
        assert_eq!(r.processes(), 2);
        assert_eq!(r.file_sizes().len(), 2);
        // Each process references its own compacted file index.
        let a: Vec<AppOp> = r.stream(0).collect();
        let b: Vec<AppOp> = r.stream(1).collect();
        assert_eq!(a.len(), 1);
        assert_eq!(b.len(), 1);
    }

    #[test]
    fn writes_replay_as_writes() {
        let mut w = rec(0, 0, 0, 512, 0, 10);
        w.op = IoOp::Write;
        let t = Trace::from_records(vec![w]);
        let r = Replay::from_trace(&t).unwrap();
        assert!(matches!(r.stream(0).next().unwrap(), AppOp::Write { .. }));
    }

    #[test]
    fn empty_trace_empty_replay() {
        let r = Replay::from_trace(&Trace::new()).unwrap();
        assert_eq!(r.processes(), 0);
        assert!(r.file_sizes().is_empty());
        assert_eq!(r.required_bytes(), 0);
    }

    /// A record whose extent ends past `u64::MAX` is an error naming that
    /// record, not an add-overflow panic or a wrapped file size.
    #[test]
    fn overflowing_extent_is_an_error() {
        let t = Trace::from_records(vec![
            rec(0, 0, 0, 512, 0, 10),
            rec(1, 0, u64::MAX - 10, 512, 10, 20),
        ]);
        let err = Replay::from_trace(&t).unwrap_err();
        assert_eq!(err.index, 1);
        assert_eq!(err.record, t.records()[1]);
        let msg = err.to_string();
        assert!(
            msg.contains("record 1") && msg.contains("512 bytes"),
            "{msg}"
        );
        // The largest extent that still fits is fine.
        let edge = Trace::from_records(vec![rec(0, 0, u64::MAX - 512, 512, 0, 10)]);
        assert_eq!(
            Replay::from_trace(&edge).unwrap().file_sizes(),
            vec![u64::MAX]
        );
    }

    #[test]
    fn overlapping_records_do_not_create_negative_gaps() {
        // Concurrent records from one pid (threaded app): gap logic must
        // not panic and order stays by start time.
        let t = Trace::from_records(vec![
            rec(0, 0, 0, 512, 0, 1000),
            rec(0, 0, 512, 512, 100, 200),
        ]);
        let r = Replay::from_trace(&t).unwrap();
        let ops: Vec<AppOp> = r.stream(0).collect();
        assert_eq!(
            ops.iter()
                .filter(|o| matches!(o, AppOp::Read { .. }))
                .count(),
            2
        );
    }
}
