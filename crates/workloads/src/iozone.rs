//! IOzone-like workload generator.
//!
//! IOzone "supports a bunch of file operations, such as read, write,
//! re-read, re-write, and read backwards, small/large file sizes,
//! small/large record sizes, and single/multiple process I/O tests"
//! (paper §IV.B). The paper uses it for Sets 1–3a:
//!
//! * Set 1/2: single-process sequential read of a large file with a given
//!   record size;
//! * Set 3a: throughput mode — N processes, each sequentially reading its
//!   *own* file (one file per process).

use crate::spec::{AppOp, OpStream, Workload};
use bps_core::extent::Extent;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// The IOzone operation being tested.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum IozoneMode {
    /// Sequential read of the whole file.
    SeqRead,
    /// Sequential write of the whole file.
    SeqWrite,
    /// Sequential read performed twice (cache-sensitivity test).
    ReRead,
    /// Sequential write performed twice.
    ReWrite,
    /// Uniform-random record reads, one pass worth of records.
    RandomRead,
    /// Sequential read from the end of file backwards.
    BackwardRead,
}

/// An IOzone run description.
#[derive(Debug, Clone)]
pub struct Iozone {
    /// Operation under test.
    pub mode: IozoneMode,
    /// Bytes per file (one file per process).
    pub file_size: u64,
    /// Record (request) size in bytes.
    pub record_size: u64,
    /// Number of processes (1 = single mode, >1 = throughput mode).
    pub processes: usize,
    /// Seed for the random modes.
    pub seed: u64,
}

impl Iozone {
    /// Single-process sequential read — the paper's Set 1/2 shape.
    pub fn seq_read(file_size: u64, record_size: u64) -> Self {
        Iozone {
            mode: IozoneMode::SeqRead,
            file_size,
            record_size,
            processes: 1,
            seed: 0,
        }
    }

    fn records(&self) -> u64 {
        self.file_size.div_ceil(self.record_size)
    }
}

impl Workload for Iozone {
    fn name(&self) -> &'static str {
        "iozone"
    }

    fn processes(&self) -> usize {
        self.processes
    }

    fn file_sizes(&self) -> Vec<u64> {
        vec![self.file_size; self.processes]
    }

    fn stream(&self, pid: usize) -> OpStream {
        assert!(pid < self.processes, "pid {pid} out of range");
        let file = pid; // one file per process
        let n = self.records();
        let rec = self.record_size;
        let size = self.file_size;
        let len_at = move |i: u64| rec.min(size - i * rec);
        match self.mode {
            IozoneMode::SeqRead => Box::new((0..n).map(move |i| AppOp::Read {
                file,
                extent: Extent::new(i * rec, len_at(i)),
            })),
            IozoneMode::SeqWrite => Box::new((0..n).map(move |i| AppOp::Write {
                file,
                extent: Extent::new(i * rec, len_at(i)),
            })),
            IozoneMode::ReRead => Box::new((0..2 * n).map(move |j| {
                let i = j % n;
                AppOp::Read {
                    file,
                    extent: Extent::new(i * rec, len_at(i)),
                }
            })),
            IozoneMode::ReWrite => Box::new((0..2 * n).map(move |j| {
                let i = j % n;
                AppOp::Write {
                    file,
                    extent: Extent::new(i * rec, len_at(i)),
                }
            })),
            IozoneMode::RandomRead => {
                let mut rng = SmallRng::seed_from_u64(self.seed ^ (pid as u64) << 32);
                Box::new((0..n).map(move |_| {
                    let i = rng.gen_range(0..n);
                    AppOp::Read {
                        file,
                        extent: Extent::new(i * rec, len_at(i)),
                    }
                }))
            }
            IozoneMode::BackwardRead => Box::new((0..n).rev().map(move |i| AppOp::Read {
                file,
                extent: Extent::new(i * rec, len_at(i)),
            })),
        }
    }

    fn required_bytes(&self) -> u64 {
        let per_pass = self.file_size * self.processes as u64;
        match self.mode {
            IozoneMode::ReRead | IozoneMode::ReWrite => 2 * per_pass,
            // Random draws may hit the short tail record any number of
            // times, so the total is stream-dependent.
            IozoneMode::RandomRead => (0..self.processes)
                .map(|p| self.stream(p).map(|op| op.required_bytes()).sum::<u64>())
                .sum(),
            _ => per_pass,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seq_read_covers_file_exactly_once() {
        let w = Iozone::seq_read(1000, 64);
        let ops: Vec<AppOp> = w.stream(0).collect();
        assert_eq!(ops.len(), 16); // ceil(1000/64)
        let mut pos = 0;
        let mut total = 0;
        for op in &ops {
            if let AppOp::Read { file, extent } = op {
                assert_eq!(*file, 0);
                assert_eq!(extent.offset, pos);
                pos += extent.len;
                total += extent.len;
            } else {
                panic!("unexpected op {op:?}");
            }
        }
        assert_eq!(total, 1000);
        assert_eq!(w.required_bytes(), 1000);
    }

    #[test]
    fn tail_record_is_short() {
        let w = Iozone::seq_read(100, 64);
        let ops: Vec<AppOp> = w.stream(0).collect();
        assert_eq!(ops.len(), 2);
        if let AppOp::Read { extent, .. } = &ops[1] {
            assert_eq!(extent.len, 36);
        }
    }

    #[test]
    fn throughput_mode_one_file_per_process() {
        let w = Iozone {
            processes: 4,
            ..Iozone::seq_read(1 << 20, 64 << 10)
        };
        assert_eq!(w.processes(), 4);
        assert_eq!(w.file_sizes(), vec![1 << 20; 4]);
        for pid in 0..4 {
            let first = w.stream(pid).next().unwrap();
            if let AppOp::Read { file, .. } = first {
                assert_eq!(file, pid);
            }
        }
        assert_eq!(w.required_bytes(), 4 << 20);
    }

    #[test]
    fn backward_read_descends() {
        let w = Iozone {
            mode: IozoneMode::BackwardRead,
            file_size: 256,
            record_size: 64,
            processes: 1,
            seed: 0,
        };
        let offsets: Vec<u64> = w
            .stream(0)
            .map(|op| match op {
                AppOp::Read { extent, .. } => extent.offset,
                _ => panic!(),
            })
            .collect();
        assert_eq!(offsets, vec![192, 128, 64, 0]);
    }

    #[test]
    fn reread_reads_twice() {
        let w = Iozone {
            mode: IozoneMode::ReRead,
            file_size: 128,
            record_size: 64,
            processes: 1,
            seed: 0,
        };
        assert_eq!(w.stream(0).count(), 4);
        assert_eq!(w.required_bytes(), 256);
    }

    #[test]
    fn random_read_is_seeded_and_in_bounds() {
        let w = Iozone {
            mode: IozoneMode::RandomRead,
            file_size: 1 << 20,
            record_size: 4096,
            processes: 2,
            seed: 9,
        };
        let a: Vec<AppOp> = w.stream(0).collect();
        let b: Vec<AppOp> = w.stream(0).collect();
        assert_eq!(a, b); // deterministic
        let c: Vec<AppOp> = w.stream(1).collect();
        assert_ne!(a, c); // processes differ
        for op in &a {
            if let AppOp::Read { extent, .. } = op {
                assert!(extent.end() <= 1 << 20);
            }
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_pid_panics() {
        let w = Iozone::seq_read(100, 10);
        let _ = w.stream(1);
    }
}
