//! Synthetic workloads beyond the paper's benchmarks.
//!
//! Used by examples and robustness tests: uniform-random access, Zipf
//! hot-spot access, and bursty on/off phases with compute gaps (the pattern
//! that makes BPS's idle-time exclusion matter most).

use crate::spec::{AppOp, OpStream, Workload};
use bps_core::extent::Extent;
use bps_core::time::Dur;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Access-pattern flavor.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub enum Pattern {
    /// Uniformly random record positions.
    Uniform,
    /// Zipf-distributed record positions with the given exponent (> 0);
    /// small exponents are near-uniform, large ones hammer a few records.
    Zipf {
        /// Skew exponent (> 0).
        exponent: f64,
    },
}

/// A synthetic mixed read/write workload.
#[derive(Debug, Clone)]
pub struct Synthetic {
    /// Bytes per file (one file per process).
    pub file_size: u64,
    /// Record size in bytes.
    pub record_size: u64,
    /// Operations per process.
    pub ops_per_process: u64,
    /// Fraction of reads in [0, 1]; the rest are writes.
    pub read_fraction: f64,
    /// Position distribution.
    pub pattern: Pattern,
    /// Number of processes.
    pub processes: usize,
    /// Compute time inserted between ops (0 = none). Every `burst_len` ops,
    /// an *extra long* gap of 10× this is inserted, creating bursts.
    pub think_time: Dur,
    /// Ops per burst (0 disables bursting).
    pub burst_len: u64,
    /// Seed.
    pub seed: u64,
}

/// Precomputed Zipf CDF sampler over `n` records.
struct ZipfSampler {
    cdf: Vec<f64>,
}

impl ZipfSampler {
    fn new(n: u64, exponent: f64) -> Self {
        let n = n.clamp(1, 1 << 20) as usize; // cap table size
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for k in 1..=n {
            acc += 1.0 / (k as f64).powf(exponent);
            cdf.push(acc);
        }
        let total = acc;
        for v in &mut cdf {
            *v /= total;
        }
        ZipfSampler { cdf }
    }

    fn sample(&self, u: f64) -> u64 {
        self.cdf.partition_point(|&c| c < u) as u64
    }
}

impl Workload for Synthetic {
    fn name(&self) -> &'static str {
        "synthetic"
    }

    fn processes(&self) -> usize {
        self.processes
    }

    fn file_sizes(&self) -> Vec<u64> {
        vec![self.file_size; self.processes]
    }

    fn stream(&self, pid: usize) -> OpStream {
        assert!(pid < self.processes, "pid {pid} out of range");
        let records = (self.file_size / self.record_size).max(1);
        let mut rng = SmallRng::seed_from_u64(self.seed ^ ((pid as u64) << 40) ^ 0xABCD);
        let zipf = match self.pattern {
            Pattern::Zipf { exponent } => Some(ZipfSampler::new(records, exponent)),
            Pattern::Uniform => None,
        };
        let rec = self.record_size;
        let read_fraction = self.read_fraction;
        let think = self.think_time;
        let burst = self.burst_len;
        let total = self.ops_per_process;
        let file_size = self.file_size;
        let file = pid;
        let mut emitted = 0u64;
        let mut pending_gap: Option<Dur> = None;
        Box::new(std::iter::from_fn(move || {
            if let Some(d) = pending_gap.take() {
                return Some(AppOp::Compute { dur: d });
            }
            if emitted >= total {
                return None;
            }
            emitted += 1;
            // Queue the post-op gap.
            if !think.is_zero() {
                let long = burst > 0 && emitted.is_multiple_of(burst);
                pending_gap = Some(if long { think * 10 } else { think });
            }
            let idx = match &zipf {
                Some(z) => z.sample(rng.gen::<f64>()) % records,
                None => rng.gen_range(0..records),
            };
            let extent = Extent::new(idx * rec, rec.min(file_size - idx * rec));
            Some(if rng.gen::<f64>() < read_fraction {
                AppOp::Read { file, extent }
            } else {
                AppOp::Write { file, extent }
            })
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A fully-read uniform workload on one process.
    fn uniform_read(file_size: u64, record_size: u64, ops: u64, seed: u64) -> Synthetic {
        Synthetic {
            file_size,
            record_size,
            ops_per_process: ops,
            read_fraction: 1.0,
            pattern: Pattern::Uniform,
            processes: 1,
            think_time: Dur::ZERO,
            burst_len: 0,
            seed,
        }
    }

    #[test]
    fn op_count_and_bounds() {
        let w = uniform_read(1 << 20, 4096, 100, 1);
        let ops: Vec<AppOp> = w.stream(0).collect();
        assert_eq!(ops.len(), 100);
        for op in &ops {
            if let AppOp::Read { extent, .. } = op {
                assert!(extent.end() <= 1 << 20);
                assert!(extent.len > 0);
            } else {
                panic!("expected read");
            }
        }
    }

    #[test]
    fn deterministic_per_seed_and_pid() {
        let w = uniform_read(1 << 20, 4096, 50, 7);
        let a: Vec<AppOp> = w.stream(0).collect();
        let b: Vec<AppOp> = w.stream(0).collect();
        assert_eq!(a, b);
    }

    #[test]
    fn write_fraction_respected_roughly() {
        let mut w = uniform_read(1 << 20, 4096, 1000, 3);
        w.read_fraction = 0.3;
        let reads = w
            .stream(0)
            .filter(|op| matches!(op, AppOp::Read { .. }))
            .count();
        assert!((200..400).contains(&reads), "reads {reads}");
    }

    #[test]
    fn zipf_is_skewed() {
        let mut w = uniform_read(1 << 22, 4096, 2000, 5);
        w.pattern = Pattern::Zipf { exponent: 1.2 };
        let mut counts = std::collections::HashMap::new();
        for op in w.stream(0) {
            if let AppOp::Read { extent, .. } = op {
                *counts.entry(extent.offset).or_insert(0u32) += 1;
            }
        }
        let max = counts.values().max().copied().unwrap_or(0);
        // The hottest record should be dramatically hotter than uniform
        // (2000 ops over 1024 records would give ~2 per record).
        assert!(max > 20, "max count {max}");
    }

    #[test]
    fn bursts_insert_long_gaps() {
        let mut w = uniform_read(1 << 20, 4096, 10, 1);
        w.think_time = Dur::from_micros(100);
        w.burst_len = 5;
        let gaps: Vec<Dur> = w
            .stream(0)
            .filter_map(|op| match op {
                AppOp::Compute { dur } => Some(dur),
                _ => None,
            })
            .collect();
        assert_eq!(gaps.len(), 10);
        assert_eq!(
            gaps.iter().filter(|d| **d == Dur::from_millis(1)).count(),
            2
        );
    }

    #[test]
    fn zipf_sampler_cdf_monotone() {
        let z = ZipfSampler::new(100, 1.0);
        assert!(z.cdf.windows(2).all(|w| w[0] <= w[1]));
        assert!((z.cdf.last().unwrap() - 1.0).abs() < 1e-12);
        assert_eq!(z.sample(0.0), 0);
        assert!(z.sample(0.999999) >= 90);
    }
}
