//! The workload vocabulary: operations, streams, and the generator trait.

use bps_core::extent::{self, Extent, Regions};
use bps_core::time::Dur;

/// One application-level operation. Files are referenced by index into the
/// workload's file table ([`Workload::file_sizes`]); the experiment harness
/// binds indices to actual simulated files.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AppOp {
    /// Contiguous read.
    Read {
        /// File table index.
        file: usize,
        /// Byte range.
        extent: Extent,
    },
    /// Contiguous write.
    Write {
        /// File table index.
        file: usize,
        /// Byte range.
        extent: Extent,
    },
    /// Noncontiguous read (one MPI-IO call over many regions) — the data
    /// sieving input.
    ReadNoncontig {
        /// File table index.
        file: usize,
        /// The regions the application actually needs.
        regions: Regions,
    },
    /// Collective noncontiguous read: every process of the workload issues
    /// one of these together (two-phase I/O). All processes must emit a
    /// matching call or the run deadlocks at the barrier.
    CollectiveReadNoncontig {
        /// File table index (must agree across processes).
        file: usize,
        /// The regions *this* process needs.
        regions: Regions,
    },
    /// Pure computation between I/O phases.
    Compute {
        /// CPU time.
        dur: Dur,
    },
}

impl AppOp {
    /// Bytes of file data this op requires (0 for compute).
    pub fn required_bytes(&self) -> u64 {
        match self {
            AppOp::Read { extent, .. } | AppOp::Write { extent, .. } => extent.len,
            AppOp::ReadNoncontig { regions, .. }
            | AppOp::CollectiveReadNoncontig { regions, .. } => extent::covered_bytes(regions),
            AppOp::Compute { .. } => 0,
        }
    }
}

/// A lazy per-process operation stream.
pub type OpStream = Box<dyn Iterator<Item = AppOp> + Send>;

/// A benchmark program: how many processes, which files, and what each
/// process does.
///
/// `Sync` is a supertrait so a sweep executor can drive the same workload
/// from several threads at once; implementations are plain descriptions
/// (`stream` returns a fresh iterator), so this costs them nothing.
pub trait Workload: Sync {
    /// Display name ("iozone", "ior", "hpio", ...).
    fn name(&self) -> &'static str;

    /// Number of application processes.
    fn processes(&self) -> usize;

    /// Sizes of the files the workload touches; index = file table index.
    fn file_sizes(&self) -> Vec<u64>;

    /// The op stream of process `pid` (0-based, `pid < processes()`).
    fn stream(&self, pid: usize) -> OpStream;

    /// Total bytes the application requires across all processes.
    /// Default: sums the streams (generators with closed forms override).
    fn required_bytes(&self) -> u64 {
        (0..self.processes())
            .map(|p| self.stream(p).map(|op| op.required_bytes()).sum::<u64>())
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn required_bytes_per_op() {
        let r = AppOp::Read {
            file: 0,
            extent: Extent::new(0, 100),
        };
        assert_eq!(r.required_bytes(), 100);
        let nc = AppOp::ReadNoncontig {
            file: 0,
            regions: vec![Extent::new(0, 10), Extent::new(50, 20)].into(),
        };
        assert_eq!(nc.required_bytes(), 30);
        let strided = AppOp::CollectiveReadNoncontig {
            file: 0,
            regions: Regions::strided(0, 256, 1024, 1 << 40),
        };
        assert_eq!(strided.required_bytes(), 256 << 40);
        let c = AppOp::Compute {
            dur: Dur::from_millis(1),
        };
        assert_eq!(c.required_bytes(), 0);
    }
}
