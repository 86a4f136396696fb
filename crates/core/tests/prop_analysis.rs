//! Reference equivalence for the stored-trace analysis path.
//!
//! Each fast algorithm is checked bit for bit against the simple one it
//! replaced: percentiles against a full sort, and their radix selection
//! against `select_nth_unstable` on a copy; the merged queue depth against
//! a concurrency profile's event sweep; and the stable-sort unions against
//! the paper's Figure 3 algorithm.

use bps_core::interval::{max_depth, paper_union_time, Interval, IntervalSet};
use bps_core::metrics::extended::{nearest_rank, LatencyPercentile};
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

/// The queue depth as a concurrency profile computes it: an event sweep
/// with +1 at each start and -1 at each end, ends sorted before starts at
/// the same instant so half-open adjacency does not inflate the depth,
/// and the peak taken once every event of an instant is applied.
/// Zero-length intervals are never in flight.
fn profile_max_depth(ivs: &[Interval]) -> u32 {
    let mut events: Vec<(Nanos, i32)> = ivs
        .iter()
        .filter(|iv| iv.start != iv.end)
        .flat_map(|iv| [(iv.start, 1), (iv.end, -1)])
        .collect();
    events.sort();
    let (mut depth, mut max, mut i) = (0i64, 0i64, 0);
    while i < events.len() {
        let t = events[i].0;
        while i < events.len() && events[i].0 == t {
            depth += i64::from(events[i].1);
            i += 1;
        }
        max = max.max(depth);
    }
    max as u32
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

/// The nearest-rank value as it was selected before radix selection:
/// `select_nth_unstable` on a copy of the durations.
fn select_nth_reference(durs: &[Dur], pct: f64) -> Option<Dur> {
    if durs.is_empty() {
        return None;
    }
    let rank = ((pct / 100.0) * durs.len() as f64).ceil() as usize;
    let mut copy = durs.to_vec();
    Some(*copy.select_nth_unstable(rank.clamp(1, durs.len()) - 1).1)
}

/// Durations shaped to reach every path of the radix selection: one
/// value, all equal, two values, a narrow band (one pass after the
/// common high bits), nanosecond-scale latencies, the whole range from 0
/// to `u64::MAX`, and its extremes. Up to 100,000 of them.
fn radix_inputs() -> impl Strategy<Value = Vec<Dur>> {
    (
        prop_oneof![1usize..4, 1usize..300, 1usize..100_000],
        0u8..7,
        any::<u64>(),
        any::<u64>(),
        any::<u64>(),
    )
        .prop_map(|(n, shape, a, b, seed)| {
            let mut x = seed | 1;
            let mut next = move || {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x
            };
            let extremes = [0, 1, a, 1 << 63, u64::MAX - 1, u64::MAX];
            (0..n)
                .map(|_| {
                    Dur(match shape {
                        0 => a,
                        1 => [a, b][(next() & 1) as usize],
                        2 => a.saturating_add(next() % 4096),
                        3 => next() % 10_000_000,
                        4 => next(),
                        5 => extremes[(next() % 6) as usize],
                        _ => next() >> (next() % 64),
                    })
                })
                .collect()
        })
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

/// Radix selection picks what `select_nth_unstable` picks at the first,
/// median, tail and last ranks of one value, of all-equal and two-valued
/// inputs, of values at both ends of the range, and of 100,000 values
/// spread over all of it.
#[test]
fn radix_selection_edge_cases() {
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    let spread: Vec<Dur> = (0..100_000)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            Dur(x)
        })
        .collect();
    let cases: [Vec<Dur>; 7] = [
        vec![Dur(7)],
        vec![Dur(u64::MAX)],
        vec![Dur(42); 1_000],
        [Dur(0), Dur(u64::MAX)].repeat(500),
        [Dur(5), Dur(6)].repeat(3),
        vec![
            Dur(u64::MAX),
            Dur(0),
            Dur(1 << 63),
            Dur(u64::MAX - 1),
            Dur(1),
        ],
        spread,
    ];
    for durs in &cases {
        for pct in [1.0, 50.0, 99.0, 100.0] {
            assert_eq!(
                nearest_rank(durs, pct),
                select_nth_reference(durs, pct),
                "rank {pct} of {} values",
                durs.len()
            );
        }
    }
    assert_eq!(nearest_rank(&[], 50.0), None);
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

    /// Radix selection equals `select_nth_unstable` on a copy, at the
    /// registered ranks, the extremes and an arbitrary one.
    #[test]
    fn radix_selection_matches_select_nth(durs in radix_inputs(), pct in 0.0f64..100.0) {
        for p in [1.0, 50.0, 99.0, 100.0, pct] {
            prop_assert_eq!(
                nearest_rank(&durs, p),
                select_nth_reference(&durs, p),
                "rank {} of {} values", p, durs.len()
            );
        }
    }

    /// The merged starts/ends give the profile's maximum depth on
    /// zero-length, touching and duplicate intervals.
    #[test]
    fn merged_max_depth_matches_profile(ivs in grid_intervals(64)) {
        prop_assert_eq!(max_depth(&ivs), profile_max_depth(&ivs));
    }

    /// Same on completion-ordered input.
    #[test]
    fn merged_max_depth_matches_profile_in_completion_order(ivs in completion_ordered(200)) {
        prop_assert_eq!(max_depth(&ivs), profile_max_depth(&ivs));
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
