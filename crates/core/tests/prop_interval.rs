//! Property tests for the overlapped-time algebra — the heart of BPS.

use bps_core::interval::{paper_union_time, Interval, IntervalSet};
use bps_core::time::{Dur, Nanos};
use proptest::prelude::*;

/// Arbitrary interval with bounded coordinates so sums never overflow.
fn interval() -> impl Strategy<Value = Interval> {
    (0u64..1_000_000, 0u64..100_000)
        .prop_map(|(start, len)| Interval::new(Nanos(start), Nanos(start + len)))
}

fn intervals(max: usize) -> impl Strategy<Value = Vec<Interval>> {
    proptest::collection::vec(interval(), 0..max)
}

/// The union measure, as the workspace computes it.
fn measure<'a>(ivs: impl IntoIterator<Item = &'a Interval>) -> Dur {
    IntervalSet::from_unsorted(ivs.into_iter().copied()).total()
}

proptest! {
    /// The union measure never exceeds the sum of the parts and never
    /// undercuts the longest part.
    #[test]
    fn union_bounded(ivs in intervals(64)) {
        let t = measure(&ivs);
        let sum = ivs.iter().fold(Dur::ZERO, |acc, iv| acc + iv.duration());
        let max = ivs.iter().map(|iv| iv.duration()).max().unwrap_or(Dur::ZERO);
        prop_assert!(t <= sum);
        prop_assert!(t >= max);
    }

    /// Input order is irrelevant.
    #[test]
    fn union_order_invariant(mut ivs in intervals(32), seed in 0u64..1000) {
        let a = measure(&ivs);
        // Cheap deterministic shuffle.
        let n = ivs.len().max(1);
        for i in 0..ivs.len() {
            let j = ((seed as usize).wrapping_mul(31).wrapping_add(i * 17)) % n;
            ivs.swap(i, j);
        }
        let b = measure(&ivs);
        prop_assert_eq!(a, b);
    }

    /// The paper's Figure 3 algorithm agrees with the independent union on
    /// every input.
    #[test]
    fn paper_algorithm_equivalent(ivs in intervals(64)) {
        prop_assert_eq!(paper_union_time(&ivs), measure(&ivs));
    }

    /// Union equals the sum of parts iff no two intervals overlap (merged
    /// set has as many spans as non-degenerate inputs).
    #[test]
    fn union_equals_sum_iff_disjoint(ivs in intervals(24)) {
        let t = measure(&ivs);
        let sum = ivs.iter().fold(Dur::ZERO, |acc, iv| acc + iv.duration());
        let set = IntervalSet::from_unsorted(ivs.iter().copied());
        if t == sum {
            // Any strict overlap would have shrunk the union. Touching
            // intervals merge spans but do not shrink the measure.
            prop_assert!(set.total() == sum);
        } else {
            prop_assert!(t < sum);
        }
    }

    /// Incremental insertion builds the same set as batch construction:
    /// the same spans and the same kept total.
    #[test]
    fn incremental_matches_batch(ivs in intervals(32)) {
        let batch = IntervalSet::from_unsorted(ivs.iter().copied());
        let mut inc = IntervalSet::new();
        for iv in &ivs {
            inc.insert(*iv);
        }
        prop_assert_eq!(batch, inc);
    }

    /// Inserting an interval already covered by the set changes nothing.
    #[test]
    fn insert_idempotent_on_covered(ivs in intervals(16)) {
        let mut set = IntervalSet::from_unsorted(ivs.iter().copied());
        let before = set.clone();
        for iv in &ivs {
            set.insert(*iv);
        }
        prop_assert_eq!(before, set);
    }

    /// Busy + idle = span, and gaps are inside the span.
    #[test]
    fn busy_plus_idle_is_span(ivs in intervals(32)) {
        let set = IntervalSet::from_unsorted(ivs.iter().copied());
        let spans = set.spans();
        if let (Some(first), Some(last)) = (spans.first(), spans.last()) {
            let span = Interval::new(first.start, last.end);
            let gaps = set.gaps();
            let idle = gaps.iter().fold(Dur::ZERO, |acc, g| acc + g.duration());
            prop_assert_eq!(set.total() + idle, span.duration());
            for gap in gaps {
                prop_assert!(gap.start >= span.start && gap.end <= span.end);
                prop_assert!(gap.duration() > Dur::ZERO);
            }
        }
    }

    /// Merging two sets of intervals unions their measures sub-additively.
    #[test]
    fn union_subadditive(a in intervals(16), b in intervals(16)) {
        let ta = measure(&a);
        let tb = measure(&b);
        let tab = measure(a.iter().chain(&b));
        prop_assert!(tab <= ta + tb);
        prop_assert!(tab >= ta.max(tb));
    }
}
