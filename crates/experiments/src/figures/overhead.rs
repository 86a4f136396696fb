//! §III.C — overhead analysis of the BPS measurement itself.
//!
//! The paper argues the methodology is cheap on two axes:
//!
//! * **Space**: "the size of each record is 32 bytes, even for 65535 I/O
//!   operations, all the records need about 3 megabytes".
//! * **Time**: the overlap algorithm is O(n log n) and "can be overlapped
//!   with data accesses".
//!
//! This module measures both on the real implementation: the binary record
//! size, the encoded footprint at the paper's example op count, and the
//! wall time of the union algorithm across record counts.

use bps_core::interval::{paper_union_time, Interval, IntervalSet};
use bps_core::time::Nanos;
use bps_sim::rng::SimRng;
use std::fmt::Write;
use std::time::Instant;

/// One row of the time-cost table.
#[derive(Debug, Clone, Copy)]
pub struct OverheadRow {
    /// Record count.
    pub n: usize,
    /// Wall nanoseconds for the paper's Figure 3 algorithm.
    pub paper_ns: u64,
    /// Wall nanoseconds for the independent sweep.
    pub sweep_ns: u64,
}

fn random_intervals(n: usize, seed: u64) -> Vec<Interval> {
    let mut rng = SimRng::seed_from_u64(seed);
    let mut t = 0u64;
    (0..n)
        .map(|_| {
            t += rng.below(100_000);
            let len = 1_000 + rng.below(300_000);
            Interval::new(Nanos(t), Nanos(t + len))
        })
        .collect()
}

/// Measure the union algorithms at the given record counts.
pub fn measure(counts: &[usize]) -> Vec<OverheadRow> {
    counts
        .iter()
        .map(|&n| {
            let ivs = random_intervals(n, 1234);
            let t0 = Instant::now();
            let a = paper_union_time(&ivs);
            let paper_ns = t0.elapsed().as_nanos() as u64;
            let t0 = Instant::now();
            let b = IntervalSet::from_unsorted(ivs.iter().copied()).total();
            let sweep_ns = t0.elapsed().as_nanos() as u64;
            assert_eq!(a, b, "algorithms disagree at n={n}");
            OverheadRow {
                n,
                paper_ns,
                sweep_ns,
            }
        })
        .collect()
}

/// Render the overhead analysis.
pub fn report() -> String {
    let mut out = String::new();
    writeln!(out, "=== Overhead analysis (paper §III.C) ===").unwrap();
    // Space.
    let record = bps_trace::format::BINARY_RECORD_SIZE;
    let example_ops = 65_535usize;
    writeln!(out, "record size: {record} bytes (paper: 32 bytes)").unwrap();
    writeln!(
        out,
        "{} ops => {:.2} MiB on disk (paper: \"about 3 megabytes\")",
        example_ops,
        (example_ops * record) as f64 / (1 << 20) as f64
    )
    .unwrap();
    // Time.
    writeln!(out, "\nunion-time cost (single run, this machine):").unwrap();
    writeln!(
        out,
        "{:>9} {:>14} {:>14}",
        "records", "paper (us)", "sweep (us)"
    )
    .unwrap();
    for row in measure(&[1_000, 10_000, 100_000]) {
        writeln!(
            out,
            "{:>9} {:>14.1} {:>14.1}",
            row.n,
            row.paper_ns as f64 / 1e3,
            row.sweep_ns as f64 / 1e3
        )
        .unwrap();
    }
    writeln!(
        out,
        "\n(steady-state numbers: the benchmark's core.union_s on trace-analyze)"
    )
    .unwrap();
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn space_claim_holds() {
        assert_eq!(bps_trace::format::BINARY_RECORD_SIZE, 32);
        let bytes = 65_535 * bps_trace::format::BINARY_RECORD_SIZE;
        // "about 3 megabytes": 2 MiB exactly, ~2.1 MB decimal.
        assert!(bytes < 3 * 1024 * 1024);
    }

    #[test]
    fn measurement_is_fast_and_consistent() {
        let rows = measure(&[1_000, 10_000]);
        assert_eq!(rows.len(), 2);
        for r in rows {
            // Both algorithms finish 10k records far under a millisecond on
            // any modern machine — but keep the bound loose for CI noise.
            assert!(r.paper_ns < 500_000_000, "{r:?}");
            assert!(r.sweep_ns < 500_000_000, "{r:?}");
        }
    }

    #[test]
    fn report_renders() {
        let r = report();
        assert!(r.contains("32 bytes"));
        assert!(r.contains("65535"));
        assert!(r.contains("sweep"));
    }
}
