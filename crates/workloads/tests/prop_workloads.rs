//! Property tests: every generator's streams stay in bounds, partition
//! their data, and report accurate totals.

use bps_core::extent::{self, Extent};
use bps_workloads::hpio::Hpio;
use bps_workloads::ior::Ior;
use bps_workloads::iozone::{Iozone, IozoneMode};
use bps_workloads::spec::{AppOp, Workload};
use proptest::prelude::*;

fn op_extents(op: &AppOp) -> Vec<Extent> {
    match op {
        AppOp::Read { extent, .. } | AppOp::Write { extent, .. } => vec![*extent],
        AppOp::ReadNoncontig { regions, .. } | AppOp::CollectiveReadNoncontig { regions, .. } => {
            extent::expand(regions).collect()
        }
        AppOp::Compute { .. } => vec![],
    }
}

proptest! {
    /// IOzone: all accesses stay inside the file; `required_bytes` matches
    /// the stream; sequential modes cover the file exactly.
    #[test]
    fn iozone_in_bounds(
        file_size in 1u64..5_000_000,
        record in 1u64..200_000,
        procs in 1usize..5,
        mode_idx in 0usize..6,
    ) {
        let mode = [
            IozoneMode::SeqRead, IozoneMode::SeqWrite, IozoneMode::ReRead,
            IozoneMode::ReWrite, IozoneMode::RandomRead, IozoneMode::BackwardRead,
        ][mode_idx];
        let w = Iozone { mode, file_size, record_size: record, processes: procs, seed: 1 };
        let mut total = 0u64;
        for pid in 0..procs {
            for op in w.stream(pid) {
                for e in op_extents(&op) {
                    prop_assert!(e.end() <= file_size, "{e:?} beyond {file_size}");
                    prop_assert!(e.len > 0);
                }
                total += op.required_bytes();
            }
        }
        prop_assert_eq!(total, w.required_bytes());
    }

    /// IOR: segments partition the file; streams tile their segments.
    #[test]
    fn ior_partition(file_size in 1u64..10_000_000, transfer in 1u64..300_000, procs in 1usize..33) {
        let w = Ior { file_size, transfer_size: transfer, processes: procs, write: false };
        let mut covered = 0u64;
        let mut pos = 0u64;
        for pid in 0..procs {
            let seg = w.segment(pid);
            prop_assert_eq!(seg.offset, pos);
            pos = seg.end();
            let mut seg_pos = seg.offset;
            for op in w.stream(pid) {
                if let AppOp::Read { extent, .. } = op {
                    prop_assert_eq!(extent.offset, seg_pos);
                    prop_assert!(extent.len <= transfer);
                    seg_pos = extent.end();
                    covered += extent.len;
                }
            }
            prop_assert_eq!(seg_pos, seg.end());
        }
        prop_assert_eq!(pos, file_size);
        prop_assert_eq!(covered, file_size);
    }

    /// HPIO: regions are disjoint, equally strided, partitioned across
    /// processes without loss, and required bytes ignore the holes.
    #[test]
    fn hpio_regions_disjoint(
        count in 0u64..5_000,
        size in 1u64..2_000,
        spacing in 0u64..5_000,
        per_call in 1u64..512,
        procs in 1usize..5,
    ) {
        let w = Hpio {
            region_count: count,
            region_size: size,
            region_spacing: spacing,
            regions_per_call: per_call,
            processes: procs,
            collective: false,
        };
        let mut starts = Vec::new();
        for pid in 0..procs {
            for op in w.stream(pid) {
                if let AppOp::ReadNoncontig { regions, .. } = op {
                    prop_assert!(extent::expand(&regions).count() as u64 <= per_call);
                    for r in extent::expand(&regions) {
                        prop_assert_eq!(r.len, size);
                        prop_assert_eq!(r.offset % w.stride(), 0);
                        prop_assert!(r.end() <= w.file_span());
                        starts.push(r.offset);
                    }
                }
            }
        }
        starts.sort_unstable();
        starts.dedup();
        prop_assert_eq!(starts.len() as u64, count);
        prop_assert_eq!(w.required_bytes(), count * size);
    }
}
