//! Structure-of-arrays record batches.
//!
//! A [`RecordBatch`] stores the same records as an [`IoRecord`] slice, as
//! parallel columns — one `Vec` per field — for sinks that want to read
//! one field across many records contiguously. It is the argument of
//! [`RecordSink::push_columns`](crate::sink::RecordSink::push_columns).
//!
//! Batches are strictly a *layout* change: `push` preserves arrival
//! order and [`RecordBatch::get`] reassembles the exact record, so a sink
//! that replays the rows through its per-record path (the default
//! `push_columns`) observes exactly what the row batch would have given
//! it. The metrics themselves fold rows through
//! [`StreamingMetrics`](crate::sink::StreamingMetrics); there is no second,
//! columnar definition of any metric.

use crate::record::{FileId, IoOp, IoRecord, Layer, ProcessId};
use crate::time::Nanos;

/// A batch of I/O records in structure-of-arrays layout: eight parallel
/// columns, one entry per record, in arrival order.
///
/// ```
/// use bps_core::prelude::*;
/// let mut batch = RecordBatch::new();
/// batch.push(&IoRecord::app_read(
///     ProcessId(0), FileId(0), 0, 4096,
///     Nanos::ZERO, Nanos(100_000),
/// ));
/// assert_eq!(batch.len(), 1);
/// assert_eq!(batch.bytes_col(), &[4096]);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RecordBatch {
    pids: Vec<ProcessId>,
    ops: Vec<IoOp>,
    files: Vec<FileId>,
    offsets: Vec<u64>,
    bytes: Vec<u64>,
    starts: Vec<Nanos>,
    ends: Vec<Nanos>,
    layers: Vec<Layer>,
}

impl RecordBatch {
    /// An empty batch.
    pub const fn new() -> Self {
        RecordBatch {
            pids: Vec::new(),
            ops: Vec::new(),
            files: Vec::new(),
            offsets: Vec::new(),
            bytes: Vec::new(),
            starts: Vec::new(),
            ends: Vec::new(),
            layers: Vec::new(),
        }
    }

    /// Append one record's fields to the columns.
    #[inline]
    pub fn push(&mut self, r: &IoRecord) {
        self.pids.push(r.pid);
        self.ops.push(r.op);
        self.files.push(r.file);
        self.offsets.push(r.offset);
        self.bytes.push(r.bytes);
        self.starts.push(r.start);
        self.ends.push(r.end);
        self.layers.push(r.layer);
    }

    /// Reassemble the record at row `i`.
    ///
    /// # Panics
    /// When `i >= len()`.
    #[inline]
    pub fn get(&self, i: usize) -> IoRecord {
        IoRecord {
            pid: self.pids[i],
            op: self.ops[i],
            file: self.files[i],
            offset: self.offsets[i],
            bytes: self.bytes[i],
            start: self.starts[i],
            end: self.ends[i],
            layer: self.layers[i],
        }
    }

    /// Number of records in the batch.
    pub fn len(&self) -> usize {
        self.layers.len()
    }

    /// True when the batch holds no records.
    pub fn is_empty(&self) -> bool {
        self.layers.is_empty()
    }

    /// The byte-size column.
    pub fn bytes_col(&self) -> &[u64] {
        &self.bytes
    }

    /// The offset column.
    pub fn offsets_col(&self) -> &[u64] {
        &self.offsets
    }

    /// The issue-time column.
    pub fn starts_col(&self) -> &[Nanos] {
        &self.starts
    }

    /// The completion-time column.
    pub fn ends_col(&self) -> &[Nanos] {
        &self.ends
    }

    /// The layer column.
    pub fn layers_col(&self) -> &[Layer] {
        &self.layers
    }

    /// The op column.
    pub fn ops_col(&self) -> &[IoOp] {
        &self.ops
    }

    /// The process-id column.
    pub fn pids_col(&self) -> &[ProcessId] {
        &self.pids
    }

    /// The file-id column.
    pub fn files_col(&self) -> &[FileId] {
        &self.files
    }
}

impl FromIterator<IoRecord> for RecordBatch {
    fn from_iter<I: IntoIterator<Item = IoRecord>>(iter: I) -> Self {
        let mut batch = RecordBatch::new();
        for r in iter {
            batch.push(&r);
        }
        batch
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(layer: Layer, bytes: u64, s_us: u64, e_us: u64) -> IoRecord {
        IoRecord::new(
            ProcessId(0),
            IoOp::Read,
            FileId(0),
            0,
            bytes,
            Nanos(s_us * 1_000),
            Nanos(e_us * 1_000),
            layer,
        )
    }

    fn sample() -> Vec<IoRecord> {
        vec![
            rec(Layer::Application, 4096, 0, 40),
            rec(Layer::FileSystem, 8192, 5, 35),
            rec(Layer::Application, 513, 20, 90),
            rec(Layer::Device, 512, 25, 60),
            rec(Layer::Application, 1 << 20, 200, 900),
        ]
    }

    #[test]
    fn roundtrips_records_in_order() {
        let records = sample();
        let mut batch = RecordBatch::new();
        for r in &records {
            batch.push(r);
        }
        assert_eq!(batch.len(), records.len());
        for (i, r) in records.iter().enumerate() {
            assert_eq!(&batch.get(i), r);
        }
        let collected: RecordBatch = records.iter().copied().collect();
        assert_eq!(collected, batch);
    }
}
