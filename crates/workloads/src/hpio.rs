//! HPIO-like noncontiguous workload generator.
//!
//! "This benchmark program can generate various data access patterns by
//! changing three parameters: region count, region spacing, and region
//! size" (paper §IV.B). The paper's Set 4 fixes region count = 4 096 000
//! and region size = 256 B, and sweeps region spacing from 8 B to 4096 B so
//! that data sieving reads ever more hole bytes.
//!
//! Each process issues `region_count / regions_per_call` noncontiguous read
//! calls (one MPI-IO call each), covering `regions_per_call` equally spaced
//! regions. Processes partition the region sequence block-wise.

use crate::spec::{AppOp, OpStream, Workload};
use bps_core::extent::Regions;

/// An HPIO run description.
#[derive(Debug, Clone)]
pub struct Hpio {
    /// Total number of regions across all processes.
    pub region_count: u64,
    /// Bytes per region.
    pub region_size: u64,
    /// Bytes of hole between consecutive regions.
    pub region_spacing: u64,
    /// Regions bundled into one noncontiguous call (ROMIO receives the
    /// whole datatype at once).
    pub regions_per_call: u64,
    /// Number of MPI processes.
    pub processes: usize,
    /// Issue collective (two-phase) reads instead of independent ones.
    pub collective: bool,
}

impl Hpio {
    /// The paper's Set 4 shape with a scaled region count.
    pub fn paper_shape(region_count: u64, region_spacing: u64, processes: usize) -> Self {
        Hpio {
            region_count,
            region_size: 256,
            region_spacing,
            regions_per_call: 4096,
            processes,
            collective: false,
        }
    }

    /// The same shape issued as collective (two-phase) reads.
    pub fn collective(mut self) -> Self {
        self.collective = true;
        self
    }

    /// Stride between region starts.
    pub fn stride(&self) -> u64 {
        self.region_size + self.region_spacing
    }

    /// Total file size spanned by all regions.
    pub fn file_span(&self) -> u64 {
        if self.region_count == 0 {
            return 0;
        }
        (self.region_count - 1) * self.stride() + self.region_size
    }

    /// Regions assigned to process `pid` (block partition).
    fn region_range(&self, pid: usize) -> (u64, u64) {
        let n = self.processes as u64;
        let base = self.region_count / n;
        let rem = self.region_count % n;
        let p = pid as u64;
        let start = p * base + p.min(rem);
        let count = base + u64::from(p < rem);
        (start, count)
    }
}

impl Workload for Hpio {
    fn name(&self) -> &'static str {
        "hpio"
    }

    fn processes(&self) -> usize {
        self.processes
    }

    fn file_sizes(&self) -> Vec<u64> {
        vec![self.file_span()]
    }

    fn stream(&self, pid: usize) -> OpStream {
        assert!(pid < self.processes, "pid {pid} out of range");
        let (first, count) = self.region_range(pid);
        let stride = self.stride();
        let size = self.region_size;
        let per_call = self.regions_per_call.max(1);
        let calls = count.div_ceil(per_call);
        let collective = self.collective;
        // Each call is one MPI vector: one run, whatever its region count.
        Box::new((0..calls).map(move |c| {
            let call_first = first + c * per_call;
            let call_count = per_call.min(first + count - call_first);
            let regions = Regions::strided(call_first * stride, size, stride, call_count);
            if collective {
                AppOp::CollectiveReadNoncontig { file: 0, regions }
            } else {
                AppOp::ReadNoncontig { file: 0, regions }
            }
        }))
    }

    fn required_bytes(&self) -> u64 {
        self.region_count * self.region_size
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bps_core::extent::{self, Extent};

    /// The region lists of `pid`'s calls, built region by region as the
    /// generator did before it emitted one run per call.
    fn materialized(w: &Hpio, pid: usize) -> Vec<Vec<Extent>> {
        let (first, count) = w.region_range(pid);
        let per_call = w.regions_per_call.max(1);
        (0..count.div_ceil(per_call))
            .map(|c| {
                let call_first = first + c * per_call;
                let call_count = per_call.min(first + count - call_first);
                (0..call_count)
                    .map(|r| Extent::new((call_first + r) * w.stride(), w.region_size))
                    .collect()
            })
            .collect()
    }

    fn regions_of(op: AppOp) -> Regions {
        match op {
            AppOp::ReadNoncontig { regions, .. }
            | AppOp::CollectiveReadNoncontig { regions, .. } => regions,
            other => panic!("not a noncontiguous call: {other:?}"),
        }
    }

    #[test]
    fn regions_are_equally_spaced() {
        let w = Hpio {
            region_count: 10,
            region_size: 256,
            region_spacing: 1024,
            regions_per_call: 4,
            processes: 1,
            collective: false,
        };
        let calls: Vec<Vec<Extent>> = w
            .stream(0)
            .map(|op| extent::expand(&regions_of(op)).collect())
            .collect();
        assert_eq!(calls.len(), 3); // 4 + 4 + 2 regions
        assert_eq!(calls[0].len(), 4);
        assert_eq!(calls[0][0], Extent::new(0, 256));
        assert_eq!(calls[0][1], Extent::new(1280, 256));
        assert_eq!(calls[2].len(), 2);
    }

    #[test]
    fn required_bytes_ignores_holes() {
        let w = Hpio::paper_shape(1000, 4096, 4);
        assert_eq!(w.required_bytes(), 1000 * 256);
    }

    #[test]
    fn file_span_includes_holes() {
        let w = Hpio {
            region_count: 3,
            region_size: 10,
            region_spacing: 90,
            regions_per_call: 8,
            processes: 1,
            collective: false,
        };
        // Regions at 0, 100, 200 of 10 bytes each.
        assert_eq!(w.file_span(), 210);
        assert_eq!(w.file_sizes(), vec![210]);
    }

    #[test]
    fn processes_partition_regions() {
        let w = Hpio::paper_shape(1003, 8, 4);
        let mut total = 0u64;
        let mut seen_starts: Vec<u64> = Vec::new();
        for pid in 0..4 {
            for op in w.stream(pid) {
                let regions = regions_of(op);
                total += extent::expand(&regions).count() as u64;
                seen_starts.extend(extent::expand(&regions).map(|r| r.offset));
            }
        }
        assert_eq!(total, 1003);
        seen_starts.sort_unstable();
        seen_starts.dedup();
        assert_eq!(seen_starts.len(), 1003); // no overlap between processes
    }

    #[test]
    fn zero_regions_is_empty() {
        let w = Hpio {
            region_count: 0,
            region_size: 256,
            region_spacing: 8,
            regions_per_call: 16,
            processes: 1,
            collective: false,
        };
        assert_eq!(w.stream(0).count(), 0);
        assert_eq!(w.file_span(), 0);
    }

    #[test]
    fn collective_mode_emits_collective_ops() {
        let w = Hpio::paper_shape(100, 8, 2).collective();
        for pid in 0..2 {
            for op in w.stream(pid) {
                assert!(matches!(op, AppOp::CollectiveReadNoncontig { .. }));
            }
        }
        // required_bytes unchanged by the mode.
        assert_eq!(w.required_bytes(), 100 * 256);
    }

    #[test]
    fn wider_spacing_grows_span_not_required() {
        let narrow = Hpio::paper_shape(100, 8, 1);
        let wide = Hpio::paper_shape(100, 4096, 1);
        assert_eq!(narrow.required_bytes(), wide.required_bytes());
        assert!(wide.file_span() > narrow.file_span());
    }

    #[test]
    fn each_call_is_one_run_expanding_to_the_materialized_regions() {
        let shapes = [
            (Hpio::paper_shape(1003, 8, 4), 4),
            (Hpio::paper_shape(10_000, 4096, 3).collective(), 3),
            (
                Hpio {
                    region_count: 17,
                    region_size: 10,
                    region_spacing: 0,
                    regions_per_call: 5,
                    processes: 2,
                    collective: false,
                },
                2,
            ),
        ];
        for (w, procs) in &shapes {
            for pid in 0..*procs {
                let calls: Vec<Regions> = w.stream(pid).map(regions_of).collect();
                let want = materialized(w, pid);
                assert_eq!(calls.len(), want.len());
                for (call, want) in calls.iter().zip(&want) {
                    assert_eq!(call.len(), 1, "one run per call");
                    assert_eq!(extent::expand(call).collect::<Vec<_>>(), *want);
                    assert_eq!(call.first_offset(), want[0].offset);
                }
            }
        }
    }
}
