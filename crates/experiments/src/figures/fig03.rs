//! Figure 3: the BPS time-calculating algorithm.
//!
//! The paper gives O(n log n) pseudocode (sort by start time, then one
//! merging pass). `bps-core` carries a faithful port
//! ([`bps_core::interval::paper_union_time`]) and an independently written
//! sort-and-sweep union ([`bps_core::interval::IntervalSet`]); this module
//! demonstrates their agreement on randomized traces — the executable
//! version of the figure.

use bps_core::interval::{paper_union_time, Interval, IntervalSet};
use bps_core::time::Nanos;
use bps_sim::rng::SimRng;
use std::fmt::Write;

/// Generate `n` random request intervals (bursty arrivals, mixed lengths).
pub fn random_intervals(n: usize, seed: u64) -> Vec<Interval> {
    let mut rng = SimRng::seed_from_u64(seed);
    let mut t = 0u64;
    (0..n)
        .map(|_| {
            // Arrivals drift forward with occasional idle gaps.
            t += rng.below(200_000);
            if rng.unit() < 0.05 {
                t += 5_000_000; // idle period
            }
            let len = 1_000 + rng.below(500_000);
            Interval::new(Nanos(t), Nanos(t + len))
        })
        .collect()
}

/// Run both implementations across sizes; returns
/// `(n, paper algorithm T seconds, sweep T seconds)` rows.
pub fn agreement(sizes: &[usize], seed: u64) -> Vec<(usize, f64, f64)> {
    sizes
        .iter()
        .map(|&n| {
            let ivs = random_intervals(n, seed ^ n as u64);
            let a = paper_union_time(&ivs).as_secs_f64();
            let b = IntervalSet::from_unsorted(ivs).total().as_secs_f64();
            (n, a, b)
        })
        .collect()
}

/// Render the demonstration.
pub fn report() -> String {
    let rows = agreement(&[10, 100, 1_000, 10_000], 42);
    let mut out = String::new();
    writeln!(out, "=== Figure 3: BPS time-calculating algorithm ===").unwrap();
    writeln!(
        out,
        "{:>8} {:>18} {:>18}",
        "records", "paper algo T (s)", "sweep T (s)"
    )
    .unwrap();
    for (n, a, b) in rows {
        writeln!(out, "{n:>8} {a:>18.6} {b:>18.6}").unwrap();
    }
    writeln!(
        out,
        "complexity O(n log n); 32-byte records => 65535 ops ~ 2 MiB (paper §III.C)"
    )
    .unwrap();
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn implementations_agree_on_random_traces() {
        for (n, a, b) in agreement(&[1, 10, 1_000, 20_000], 7) {
            assert!((a - b).abs() < 1e-12, "n={n}: {a} vs {b}");
        }
    }

    #[test]
    fn random_intervals_are_valid_and_sized() {
        let ivs = random_intervals(500, 3);
        assert_eq!(ivs.len(), 500);
        assert!(ivs.iter().all(|iv| iv.end >= iv.start));
    }

    #[test]
    fn report_renders() {
        let r = report();
        assert!(r.contains("paper algo"));
        assert!(r.contains("65535"));
    }
}
