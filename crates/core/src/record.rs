//! The per-access I/O record (paper §III.B, Step 1).
//!
//! "We use one record to capture the information of each I/O access of a
//! process. Each record includes process ID, I/O size (blocks), I/O start
//! time, and I/O end time."
//!
//! We additionally tag each record with the *layer* it was observed at,
//! because the paper's whole argument is that metrics measured at different
//! layers disagree: BPS / IOPS / ARPT are defined over what the
//! *application* requested, while bandwidth is defined over what actually
//! moved through the *file system* (which, with data sieving or prefetching,
//! can be much more).

use crate::block::blocks_for_bytes;
use crate::interval::Interval;
use crate::time::{Dur, Nanos};
use serde::{Deserialize, Serialize};

/// Identifier of the process (MPI rank or OS process) that issued an access.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
#[serde(transparent)]
pub struct ProcessId(pub u32);

/// Identifier of the file (or device, at the device layer) accessed.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
#[serde(transparent)]
pub struct FileId(pub u32);

/// Direction of the access.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum IoOp {
    /// Data read from the I/O system.
    Read,
    /// Data written to the I/O system.
    Write,
}

/// The layer of the I/O stack at which a record was observed.
///
/// The paper instruments "the I/O middleware layer for MPI-IO applications,
/// or I/O function libraries for ordinary POSIX interface applications" —
/// that is [`Layer::Application`]. The amount of data *actually moved*, used
/// by the bandwidth metric, is observed below the optimizations, at
/// [`Layer::FileSystem`]; [`Layer::Device`] records what the block devices
/// themselves served.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Layer {
    /// What the application asked for (above all optimizations).
    Application,
    /// What was requested of the (possibly parallel) file system.
    FileSystem,
    /// What the block device actually served.
    Device,
    /// Time a request spent crossing the interconnect between client and
    /// server (request out for writes, reply back for reads). Network
    /// records document transport cost without counting toward any of the
    /// four paper metrics.
    Network,
    /// A failed or abandoned attempt of a retried request. Retry records
    /// are sub-records of the application call that eventually succeeds
    /// (or gives up); they document degraded-mode work without counting
    /// toward any of the four paper metrics.
    Retry,
}

/// One I/O access: the unit of the BPS measurement methodology.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct IoRecord {
    /// Issuing process.
    pub pid: ProcessId,
    /// Read or write.
    pub op: IoOp,
    /// File (or device) accessed.
    pub file: FileId,
    /// Byte offset of the access within the file.
    pub offset: u64,
    /// Size of the access in bytes.
    pub bytes: u64,
    /// Issue time.
    pub start: Nanos,
    /// Completion time.
    pub end: Nanos,
    /// Observation layer.
    pub layer: Layer,
}

impl IoRecord {
    /// Build a record, panicking on inverted times (use in generators that
    /// construct times monotonically; parsers should validate separately).
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        pid: ProcessId,
        op: IoOp,
        file: FileId,
        offset: u64,
        bytes: u64,
        start: Nanos,
        end: Nanos,
        layer: Layer,
    ) -> Self {
        assert!(end >= start, "I/O record ends before it starts");
        IoRecord {
            pid,
            op,
            file,
            offset,
            bytes,
            start,
            end,
            layer,
        }
    }

    /// Convenience constructor for an application-layer read.
    pub fn app_read(
        pid: ProcessId,
        file: FileId,
        offset: u64,
        bytes: u64,
        start: Nanos,
        end: Nanos,
    ) -> Self {
        Self::new(
            pid,
            IoOp::Read,
            file,
            offset,
            bytes,
            start,
            end,
            Layer::Application,
        )
    }

    /// Response time of this access (the quantity ARPT averages).
    pub fn duration(&self) -> Dur {
        self.end - self.start
    }

    /// Number of 512-byte blocks this access required (rounded up).
    pub fn blocks(&self) -> u64 {
        blocks_for_bytes(self.bytes)
    }

    /// The in-flight interval of this access.
    pub fn interval(&self) -> Interval {
        Interval {
            start: self.start,
            end: self.end,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(bytes: u64, s: u64, e: u64) -> IoRecord {
        IoRecord::app_read(
            ProcessId(1),
            FileId(0),
            0,
            bytes,
            Nanos::from_micros(s),
            Nanos::from_micros(e),
        )
    }

    #[test]
    fn blocks_round_up() {
        assert_eq!(rec(0, 0, 1).blocks(), 0);
        assert_eq!(rec(1, 0, 1).blocks(), 1);
        assert_eq!(rec(512, 0, 1).blocks(), 1);
        assert_eq!(rec(1 << 16, 0, 1).blocks(), 128);
    }

    #[test]
    fn duration_and_interval_agree() {
        let r = rec(4096, 10, 35);
        assert_eq!(r.duration(), Dur::from_micros(25));
        assert_eq!(r.interval().duration(), r.duration());
    }

    #[test]
    #[should_panic(expected = "ends before it starts")]
    fn inverted_record_panics() {
        let _ = rec(1, 5, 4);
    }

    #[test]
    fn serde_roundtrip() {
        let r = rec(4096, 10, 35);
        let json = serde_json::to_string(&r).unwrap();
        let back: IoRecord = serde_json::from_str(&json).unwrap();
        assert_eq!(r, back);
    }
}
