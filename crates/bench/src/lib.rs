//! # bps-bench — benchmark helpers
//!
//! The Criterion benches live in `benches/`:
//!
//! * `core_micro` — the §III.C overhead analysis: interval-union scaling
//!   (the paper's Figure 3 algorithm vs the sweep), metric computation,
//!   correlation, and the 32-byte binary codec.
//! * `figures` — one bench per paper table/figure, regenerating its data
//!   at test scale so regressions in any experiment's cost are caught.
//! * `ablations` — the design-choice studies DESIGN.md calls out: data
//!   sieving on/off, FIFO vs elevator scheduling, stripe-size sweep, page
//!   cache cold vs warm.
//!
//! This library hosts shared generators so the benches stay small.
//!
//! Everything here measures one function or layer in isolation. End-to-end claims — what a user of
//! `reproduce` waits for, and how it splits over the crates — come from
//! the `benchmark` package at the repository root (`BENCHMARK.json`,
//! `benchmark/README.md`).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use bps_core::interval::Interval;
use bps_core::record::{FileId, IoRecord, ProcessId};
use bps_core::time::Nanos;
use bps_core::trace::Trace;
use bps_sim::rng::SimRng;

/// `n` random, partially overlapping intervals for union benchmarks.
pub fn random_intervals(n: usize, seed: u64) -> Vec<Interval> {
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

/// A lazy synthetic multi-process application record stream — one record
/// at a time, nothing materialized, so streaming observers can be fed
/// arbitrarily long streams in constant space.
///
/// Records come out the way the simulation engine emits them: in global
/// issue order (nondecreasing start times) with durations long relative
/// to the inter-issue gaps, so the intervals of concurrently running
/// processes overlap heavily — the arrival shape `OnlineUnion`'s fast
/// paths and the batch hull fusing are built for.
pub fn synthetic_records(n: usize, seed: u64) -> impl Iterator<Item = IoRecord> {
    let mut rng = SimRng::seed_from_u64(seed);
    let mut t = 0u64;
    (0..n).map(move |i| {
        let pid = (i % 4) as u32;
        // Mostly back-to-back issues; roughly one issue in a thousand
        // follows an idle gap longer than any single access, closing the
        // current busy period.
        t += if rng.below(1_000) == 0 {
            1_000_000 + rng.below(5_000_000)
        } else {
            rng.below(50_000)
        };
        let dur = 10_000 + rng.below(500_000);
        IoRecord::app_read(
            ProcessId(pid),
            FileId(0),
            i as u64 * 65536,
            4096 + rng.below(1 << 20),
            Nanos(t),
            Nanos(t + dur),
        )
    })
}

/// A synthetic multi-process application trace with `n` records (the
/// materialized form of [`synthetic_records`]).
pub fn random_trace(n: usize, seed: u64) -> Trace {
    let mut trace = Trace::new();
    for r in synthetic_records(n, seed) {
        trace.push(r);
    }
    trace
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generators_produce_requested_sizes() {
        assert_eq!(random_intervals(100, 1).len(), 100);
        let t = random_trace(200, 2);
        assert_eq!(t.len(), 200);
        assert!(t.records().iter().all(|r| r.end >= r.start));
    }

    #[test]
    fn generators_are_deterministic() {
        assert_eq!(random_intervals(50, 3), random_intervals(50, 3));
        assert_eq!(random_trace(50, 4).records(), random_trace(50, 4).records());
    }
}
