//! Reference equivalence for the stored-trace analysis path.
//!
//! Each fast algorithm is checked bit for bit against the simple one it
//! replaced: selection percentiles against a full sort, the merged queue
//! depth against the concurrency profile's event sweep, and the stable-sort
//! unions against the paper's Figure 3 algorithm.

use bps_core::interval::{max_depth, paper_union_time, ConcurrencyProfile, Interval, IntervalSet};
use bps_core::metrics::extended::LatencyPercentile;
use bps_core::metrics::{FoldNeeds, MetricFold};
use bps_core::record::{FileId, IoRecord, ProcessId};
use bps_core::sink::{RecordSink, StreamingMetrics};
use bps_core::time::{Dur, Nanos};
use proptest::prelude::*;

/// Intervals on a coarse grid, so ties, duplicates, touching and
/// zero-length intervals are common.
fn grid_intervals(max: usize) -> impl Strategy<Value = Vec<Interval>> {
    proptest::collection::vec((0u64..40, 0u64..8), 0..max).prop_map(|v| {
        v.into_iter()
            .map(|(s, len)| Interval::new(Nanos(s), Nanos(s + len)))
            .collect()
    })
}

/// Intervals in completion order: issued in start order, then ordered by
/// end, so starts are nearly sorted. This is the shape the stable sorts'
/// run detection serves.
fn completion_ordered(max: usize) -> impl Strategy<Value = Vec<Interval>> {
    proptest::collection::vec((0u64..5_000, 0u64..20_000), 0..max).prop_map(|v| {
        let mut t = 0;
        let mut ivs: Vec<Interval> = v
            .into_iter()
            .map(|(gap, len)| {
                t += gap;
                Interval::new(Nanos(t), Nanos(t + len))
            })
            .collect();
        ivs.sort_by_key(|iv| iv.end);
        ivs
    })
}

/// The percentile as it was computed before selection: every duration
/// converted to seconds, fully sorted, nearest rank.
fn sorted_nearest_rank(durs: &[Dur], pct: f64) -> Option<f64> {
    let mut secs: Vec<f64> = durs.iter().map(|d| d.as_secs_f64()).collect();
    if secs.is_empty() {
        return None;
    }
    secs.sort_unstable_by(|a, b| a.partial_cmp(b).unwrap());
    let rank = ((pct / 100.0) * secs.len() as f64).ceil() as usize;
    Some(secs[rank.clamp(1, secs.len()) - 1])
}

fn percentile_of(durs: &[Dur], pct: f64) -> Option<f64> {
    let mut acc = StreamingMetrics::with_needs(FoldNeeds::ALL);
    for (i, d) in durs.iter().enumerate() {
        let start = Nanos(i as u64 * 10);
        acc.on_record(&IoRecord::app_read(
            ProcessId(0),
            FileId(0),
            0,
            512,
            start,
            start + *d,
        ));
    }
    LatencyPercentile(pct).finish(&acc)
}

#[test]
fn percentile_edge_cases() {
    let one = [Dur(7)];
    for pct in [0.0, 1.0, 50.0, 99.0, 100.0] {
        assert_eq!(percentile_of(&one, pct), Some(Dur(7).as_secs_f64()));
    }
    let ties = [Dur(3), Dur(3), Dur(3), Dur(1)];
    for pct in [50.0, 99.0, 100.0] {
        assert_eq!(
            percentile_of(&ties, pct).map(f64::to_bits),
            sorted_nearest_rank(&ties, pct).map(f64::to_bits)
        );
    }
    assert_eq!(percentile_of(&[], 50.0), None);
}

#[test]
fn max_depth_edge_cases() {
    let iv = |s: u64, e: u64| Interval::new(Nanos(s), Nanos(e));
    assert_eq!(max_depth(&[]), 0);
    // Zero-length intervals are not in flight.
    assert_eq!(max_depth(&[iv(5, 5), iv(5, 5)]), 0);
    // Touching intervals: the end at 4 comes before the start at 4.
    assert_eq!(max_depth(&[iv(0, 4), iv(4, 8)]), 1);
    // Duplicates stack.
    assert_eq!(max_depth(&[iv(0, 4), iv(0, 4), iv(0, 4)]), 3);
    // A zero-length interval inside a busy one does not raise the depth.
    assert_eq!(max_depth(&[iv(0, 4), iv(2, 2)]), 1);
}

proptest! {
    /// Selection picks the same element as the full sort, bit for bit, at
    /// the registered ranks and at arbitrary ones.
    #[test]
    fn selection_percentile_matches_sort(
        durs in proptest::collection::vec((0u64..50).prop_map(|d| Dur(d * 1_000_003)), 0..200),
        pct in 0.0f64..100.0,
    ) {
        for p in [50.0, 99.0, 100.0, pct] {
            prop_assert_eq!(
                percentile_of(&durs, p).map(f64::to_bits),
                sorted_nearest_rank(&durs, p).map(f64::to_bits),
                "rank {}", p
            );
        }
    }

    /// The merged starts/ends give the profile's maximum depth on
    /// zero-length, touching and duplicate intervals.
    #[test]
    fn merged_max_depth_matches_profile(ivs in grid_intervals(64)) {
        let profile = ConcurrencyProfile::from_intervals(ivs.iter().copied());
        prop_assert_eq!(max_depth(&ivs), profile.max_depth);
    }

    /// Same on completion-ordered input.
    #[test]
    fn merged_max_depth_matches_profile_in_completion_order(ivs in completion_ordered(200)) {
        let profile = ConcurrencyProfile::from_intervals(ivs.iter().copied());
        prop_assert_eq!(max_depth(&ivs), profile.max_depth);
    }

    /// The stable-sort union equals the paper's algorithm, on grid input
    /// full of ties and on nearly sorted completion-ordered input.
    #[test]
    fn stable_sort_union_matches_paper(grid in grid_intervals(64), done in completion_ordered(200)) {
        for ivs in [&grid, &done] {
            let paper = paper_union_time(ivs);
            prop_assert_eq!(IntervalSet::from_unsorted(ivs.iter().copied()).total(), paper);
        }
    }

    /// Building the set by sorting equals building it by insertion.
    #[test]
    fn stable_sort_set_matches_insertion(ivs in completion_ordered(200)) {
        let mut inserted = IntervalSet::new();
        for &iv in &ivs {
            inserted.insert(iv);
        }
        prop_assert_eq!(IntervalSet::from_unsorted(ivs.iter().copied()), inserted);
    }
}
