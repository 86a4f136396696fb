//! Overlapped I/O-time computation (paper §III, Figures 2 and 3).
//!
//! The denominator `T` of the BPS equation is *not* the sum of per-request
//! response times and *not* the application wall time. It is the total
//! length of the union of all I/O-active intervals:
//!
//! * idle periods with no in-flight I/O contribute nothing, and
//! * any instant covered by several concurrent requests is counted once.
//!
//! In the paper's Figure 2, four requests R1..R4 with R1–R3 mutually
//! overlapping and R4 disjoint yield `T = Δt1 + Δt2`, where Δt1 spans the
//! merged extent of R1–R3 and Δt2 = T4.
//!
//! Two implementations are provided:
//!
//! * [`IntervalSet`] — an independently written union, maintained merged
//!   as intervals arrive ([`IntervalSet::insert`]) or built by one sort and
//!   sweep ([`IntervalSet::from_unsorted`]); the one the rest of the
//!   workspace uses;
//! * [`paper_union_time`] — a line-by-line port of the pseudocode in the
//!   paper's Figure 3, kept as executable documentation and cross-checked
//!   against `IntervalSet` by property tests.

use crate::time::{Dur, Nanos};
use serde::{Deserialize, Serialize};

/// A half-open time interval `[start, end)` during which an I/O request was
/// in flight. `start == end` is permitted and denotes an instantaneous
/// (zero-cost) access that contributes nothing to `T`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct Interval {
    /// Moment the request was issued.
    pub start: Nanos,
    /// Moment the request completed.
    pub end: Nanos,
}

impl Interval {
    /// Build an interval, panicking if `end < start`.
    ///
    /// Records read from trace files never reach this panic: the binary
    /// decoder rejects an inverted record as corrupt before building it.
    pub fn new(start: Nanos, end: Nanos) -> Self {
        assert!(end >= start, "interval ends before it starts");
        Interval { start, end }
    }

    /// Length of the interval.
    pub fn duration(&self) -> Dur {
        self.end - self.start
    }

    /// Smallest interval covering both.
    pub fn hull(&self, other: &Interval) -> Interval {
        Interval {
            start: self.start.min(other.start),
            end: self.end.max(other.end),
        }
    }
}

/// Sort intervals by `(start, end)` with the stable, run-detecting sort.
///
/// Records arrive in completion order, which is nearly sorted by start:
/// the stable sort finds and merges those runs, the unstable one does not.
/// Intervals with equal keys are identical, so stability changes nothing
/// but the cost.
fn sort_runs(v: &mut [Interval]) {
    v.sort_by_key(|iv| (iv.start, iv.end));
}

/// Faithful port of the pseudocode in the paper's Figure 3 ("BPS time
/// calculating algorithm").
///
/// The paper sorts `col_time` by start time, then walks the records pairwise:
/// disjoint neighbours flush the running record's length into `T`; otherwise
/// the next record is widened to the running hull. The final record's length
/// is added after the loop.
///
/// This port preserves the structure (including the in-place widening of
/// `nextRecord`) and is checked by property tests to agree with
/// [`IntervalSet`] on every input.
pub fn paper_union_time(col_time: &[Interval]) -> Dur {
    if col_time.is_empty() {
        return Dur::ZERO;
    }
    // "sort all records in col_time according to the start time of each record"
    let mut records = col_time.to_vec();
    records.sort_unstable_by_key(|r| r.start);

    let mut t = Dur::ZERO;
    // tempRecord = first Record of col_time
    let mut temp = records[0];
    // while col_time has next do
    for next in records.iter_mut().skip(1) {
        if temp.end < next.start {
            // T += tempRecord.endtime - tempRecord.starttime
            //
            // The paper's listing shows `T = ...`; taken literally that
            // would discard previously accumulated busy periods, which
            // contradicts the prose ("the overall T for these four requests
            // is equal to Δt1 + Δt2"). We implement the accumulation the
            // prose and Figure 2 demand.
            t += temp.end - temp.start;
        } else {
            // nextRecord.starttime = tempRecord.starttime
            next.start = temp.start;
            // if nextRecord.endtime < tempRecord.endtime
            if next.end < temp.end {
                next.end = temp.end;
            }
        }
        // tempRecord = nextRecord
        temp = *next;
    }
    // T += tempRecord.endtime - tempRecord.starttime
    t + (temp.end - temp.start)
}

/// A maintained union of intervals: always stored merged, disjoint, and
/// sorted, with its measure (the paper's `T`) kept up to date. Used for the
/// overlapped time of a whole trace, incremental busy-time accounting in
/// the streaming metrics, and gap (idle period) analysis.
///
/// The state is a canonical function of the *set* of intervals inserted:
/// every path keeps the spans disjoint, sorted and maximal, with `total`
/// exactly their integer measure. Insertion order never shows.
///
/// ```
/// use bps_core::interval::{Interval, IntervalSet};
/// use bps_core::time::{Dur, Nanos};
/// let ms = Nanos::from_millis;
/// // R1=[0,4), R2=[1,5), R3=[3,6) overlap; R4=[8,10) is disjoint.
/// let set = IntervalSet::from_unsorted([
///     Interval::new(ms(0), ms(4)),
///     Interval::new(ms(1), ms(5)),
///     Interval::new(ms(3), ms(6)),
///     Interval::new(ms(8), ms(10)),
/// ]);
/// assert_eq!(set.total(), Dur::from_millis(6 + 2)); // Δt1 + Δt2
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct IntervalSet {
    /// Merged, disjoint, sorted by start.
    spans: Vec<Interval>,
    /// Measure of every span inserted, forgotten ones included.
    total: Dur,
    /// End of the last span [`IntervalSet::forget_before`] dropped, if
    /// any: no later insert may start at or before it.
    forgotten_end: Option<Nanos>,
}

impl IntervalSet {
    /// An empty set.
    pub fn new() -> Self {
        IntervalSet::default()
    }

    /// Build from arbitrary (unsorted, overlapping) intervals: one sort,
    /// then one merge in place in the sorted buffer. O(n log n) time, no
    /// second buffer.
    pub fn from_unsorted<I: IntoIterator<Item = Interval>>(intervals: I) -> Self {
        let mut spans: Vec<Interval> = intervals.into_iter().collect();
        sort_runs(&mut spans);
        let mut total = Dur::ZERO;
        let mut len = 0;
        if let Some(&first) = spans.first() {
            // `cur` is the open span; closed spans are written back over
            // the already-read front of the buffer.
            let mut cur = first;
            for i in 1..spans.len() {
                let iv = spans[i];
                if iv.start <= cur.end {
                    cur.end = cur.end.max(iv.end);
                } else {
                    total += cur.duration();
                    spans[len] = cur;
                    len += 1;
                    cur = iv;
                }
            }
            total += cur.duration();
            spans[len] = cur;
            len += 1;
        }
        spans.truncate(len);
        IntervalSet {
            spans,
            total,
            forgotten_end: None,
        }
    }

    /// Insert one interval, merging as needed. Intervals arriving in
    /// nondecreasing start order (the common case when fed from a
    /// simulation or a live recorder) take an O(1) fast path: they either
    /// extend the rightmost span or open a new one. Out-of-order arrivals
    /// fall back to a binary search and splice, O(n) worst case.
    ///
    /// # Panics
    ///
    /// If `iv` starts at or before the end of a span `forget_before` dropped
    /// behind a watermark (see [`crate::sink::RecordSink::on_watermark`]):
    /// it could merge with that span, and the set no longer knows where it
    /// was. Only the empty-set and out-of-order paths check; every retained
    /// span lies wholly after every forgotten one, so the other fast paths
    /// cannot reach back.
    #[inline]
    pub fn insert(&mut self, iv: Interval) {
        // Fast paths against the rightmost span.
        match self.spans.last_mut() {
            None => {
                self.check_not_forgotten(iv);
                self.total += iv.duration();
                self.spans.push(iv);
                return;
            }
            Some(last) if iv.start > last.end => {
                self.total += iv.duration();
                self.spans.push(iv);
                return;
            }
            Some(last) if iv.start >= last.start => {
                if iv.end > last.end {
                    self.total += iv.end - last.end;
                    last.end = iv.end;
                }
                return;
            }
            _ => {}
        }
        // General path: merge with every overlapping or touching span.
        self.check_not_forgotten(iv);
        let first = self.spans.partition_point(|s| s.end < iv.start);
        let mut merged = iv;
        let mut displaced = Dur::ZERO;
        let mut last = first;
        while last < self.spans.len() && self.spans[last].start <= merged.end {
            displaced += self.spans[last].duration();
            merged = merged.hull(&self.spans[last]);
            last += 1;
        }
        self.total = self.total - displaced + merged.duration();
        self.spans.splice(first..last, std::iter::once(merged));
    }

    #[inline]
    fn check_not_forgotten(&self, iv: Interval) {
        if let Some(end) = self.forgotten_end {
            assert!(
                iv.start > end,
                "interval starting at {} ns could touch a span forgotten up to {} ns",
                iv.start.0,
                end.0
            );
        }
    }

    /// Drop every span that ends strictly before `t`, keeping its measure
    /// in [`IntervalSet::total`]. The caller promises that no later insert
    /// starts before `t`: a dropped span ends before any such interval
    /// starts, so it could never merge with one again, and `T` stays
    /// exactly what it would have been. A span ending exactly at `t`
    /// stays, since an interval starting at `t` touches it and merges.
    ///
    /// Afterwards [`IntervalSet::spans`], [`IntervalSet::span`],
    /// [`IntervalSet::gaps`] and [`IntervalSet::period_count`] see only the
    /// retained spans, and an insert that breaks the promise panics instead
    /// of changing `T`.
    pub(crate) fn forget_before(&mut self, t: Nanos) {
        let k = self.spans.partition_point(|s| s.end < t);
        if k > 0 {
            self.forgotten_end = Some(self.spans[k - 1].end);
            self.spans.drain(..k);
        }
    }

    /// Total measure of the union (the paper's `T`), forgotten spans
    /// included. O(1).
    pub fn total(&self) -> Dur {
        self.total
    }

    /// Number of retained disjoint busy periods.
    pub fn period_count(&self) -> usize {
        self.spans.len()
    }

    /// True if no interval has been inserted (or all were degenerate —
    /// degenerate intervals are kept but measure zero).
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty() && self.forgotten_end.is_none()
    }

    /// The retained merged disjoint spans, sorted by start.
    pub fn spans(&self) -> &[Interval] {
        &self.spans
    }

    /// Hull from the earliest start to the latest end, if any.
    pub fn span(&self) -> Option<Interval> {
        match (self.spans.first(), self.spans.last()) {
            (Some(a), Some(b)) => Some(Interval {
                start: a.start,
                end: b.end,
            }),
            _ => None,
        }
    }

    /// The idle gaps between busy periods (the paper's "inactive time",
    /// e.g. `[t6, t7)` in Figure 2).
    pub fn gaps(&self) -> Vec<Interval> {
        self.spans
            .windows(2)
            .filter(|w| w[0].end < w[1].start)
            .map(|w| Interval {
                start: w[0].end,
                end: w[1].start,
            })
            .collect()
    }
}

/// Peak number of simultaneously in-flight intervals (queue depth).
///
/// Sorts the starts and the ends as two integer arrays and merges them.
/// Zero-length intervals are skipped and ends sort before starts at the
/// same instant, so half-open adjacency does not inflate the depth. Taking
/// the maximum after each start is enough: at a given instant every end is
/// consumed before the first start, and each further start only raises the
/// depth, so the last start there reaches the depth in flight from that
/// instant on.
pub fn max_depth(intervals: &[Interval]) -> u32 {
    let (mut starts, mut ends): (Vec<u64>, Vec<u64>) = intervals
        .iter()
        .filter(|iv| iv.start != iv.end)
        .map(|iv| (iv.start.0, iv.end.0))
        .unzip();
    starts.sort();
    ends.sort();
    // `ended` never passes `i`: an end at or before a start belongs to an
    // interval that started strictly earlier.
    let mut ended = 0;
    let mut max = 0;
    for (i, &s) in starts.iter().enumerate() {
        while ends[ended] <= s {
            ended += 1;
        }
        max = max.max(i + 1 - ended);
    }
    max as u32
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(v: u64) -> Nanos {
        Nanos::from_millis(v)
    }
    fn iv(a: u64, b: u64) -> Interval {
        Interval::new(ms(a), ms(b))
    }
    fn measure<I: IntoIterator<Item = Interval>>(ivs: I) -> Dur {
        IntervalSet::from_unsorted(ivs).total()
    }

    #[test]
    fn empty_union_is_zero() {
        assert_eq!(measure([]), Dur::ZERO);
        assert_eq!(paper_union_time(&[]), Dur::ZERO);
    }

    #[test]
    fn figure_2_example() {
        // R1..R3 overlap into Δt1 = [0,6); R4 = [8,10) gives Δt2 = 2ms.
        let records = [iv(0, 4), iv(1, 5), iv(3, 6), iv(8, 10)];
        assert_eq!(measure(records), Dur::from_millis(8));
        assert_eq!(paper_union_time(&records), Dur::from_millis(8));
    }

    #[test]
    fn touching_intervals_merge() {
        // Back-to-back sequential requests: no idle gap, single busy period.
        let set = IntervalSet::from_unsorted([iv(0, 2), iv(2, 5)]);
        assert_eq!(set.period_count(), 1);
        assert_eq!(set.total(), Dur::from_millis(5));
        assert!(set.gaps().is_empty());
    }

    #[test]
    fn contained_interval_adds_nothing() {
        let t = measure([iv(0, 10), iv(2, 3)]);
        assert_eq!(t, Dur::from_millis(10));
    }

    #[test]
    fn order_invariance() {
        let a = [iv(5, 9), iv(0, 2), iv(1, 6), iv(20, 21)];
        let mut b = a;
        b.reverse();
        assert_eq!(measure(a), measure(b));
        assert_eq!(paper_union_time(&a), paper_union_time(&b));
    }

    #[test]
    fn paper_algorithm_matches_sweep_on_fixed_cases() {
        let cases: Vec<Vec<Interval>> = vec![
            vec![iv(0, 1)],
            vec![iv(0, 1), iv(1, 2)],
            vec![iv(0, 5), iv(1, 2), iv(3, 8), iv(10, 11)],
            vec![iv(0, 0), iv(0, 0)], // degenerate
            vec![iv(3, 3), iv(1, 4)],
            vec![iv(0, 10), iv(0, 10), iv(0, 10)],
        ];
        for c in cases {
            assert_eq!(paper_union_time(&c), measure(c.iter().copied()), "{c:?}");
        }
    }

    #[test]
    fn interval_set_insert_matches_batch() {
        let data = [iv(4, 7), iv(0, 1), iv(6, 9), iv(2, 3), iv(1, 2)];
        let batch = IntervalSet::from_unsorted(data);
        let mut inc = IntervalSet::new();
        for d in data {
            inc.insert(d);
        }
        assert_eq!(batch, inc);
        assert_eq!(batch.total(), paper_union_time(&data));
    }

    #[test]
    fn interval_set_gaps_and_idle() {
        let set = IntervalSet::from_unsorted([iv(0, 2), iv(5, 6), iv(9, 10)]);
        let gaps = set.gaps();
        assert_eq!(gaps, vec![iv(2, 5), iv(6, 9)]);
        let idle = gaps.iter().fold(Dur::ZERO, |acc, g| acc + g.duration());
        assert_eq!(idle, Dur::from_millis(6));
        assert_eq!(set.span().unwrap(), iv(0, 10));
    }

    #[test]
    fn insert_merging_across_many_spans() {
        let mut set = IntervalSet::new();
        for k in 0..5 {
            set.insert(iv(k * 10, k * 10 + 2));
        }
        assert_eq!(set.period_count(), 5);
        // One big interval swallows the middle three.
        set.insert(iv(11, 35));
        assert_eq!(set.period_count(), 3);
        assert_eq!(set.span().unwrap(), iv(0, 42));
        // [0,2) + [10,35) + [40,42) = 2 + 25 + 2 ms.
        assert_eq!(set.total(), Dur::from_millis(29));
    }

    #[test]
    fn forget_before_keeps_the_total() {
        let mut set = IntervalSet::new();
        for k in 0..10 {
            set.insert(iv(k * 10, k * 10 + 3));
        }
        let before = set.total();
        set.forget_before(ms(55));
        assert_eq!(set.total(), before);
        assert_eq!(set.period_count(), 4);
        // Later arrivals keep adding to the same measure.
        set.insert(iv(95, 120));
        set.insert(iv(200, 201));
        assert_eq!(set.total(), Dur::from_millis(10 * 3 + 25 + 1));
        assert!(!set.is_empty());
    }

    #[test]
    fn forget_before_drops_only_spans_ending_strictly_before() {
        let mut set = IntervalSet::from_unsorted([iv(0, 2), iv(4, 6), iv(8, 10)]);
        // [4,6) ends exactly at the watermark: an interval starting at 6
        // touches it and must merge, so it stays.
        set.forget_before(ms(6));
        assert_eq!(set.spans(), &[iv(4, 6), iv(8, 10)]);
        set.insert(iv(6, 7));
        assert_eq!(set.spans(), &[iv(4, 7), iv(8, 10)]);
        assert_eq!(set.total(), Dur::from_millis(2 + 3 + 2));
        // A watermark before every end drops nothing.
        set.forget_before(ms(3));
        assert_eq!(set.period_count(), 2);
        // Forgetting everything keeps the set non-empty in measure.
        set.forget_before(ms(11));
        assert_eq!(set.period_count(), 0);
        assert!(!set.is_empty());
        assert_eq!(set.total(), Dur::from_millis(7));
    }

    /// A watermark the producer broke. In the paper's Fig. 2/3, overlapping
    /// requests form one busy period and the instants they share count once
    /// in `T`. The forgotten span [4,6) and the late interval [5,9) share
    /// [5,6), but the set no longer knows where [4,6) was, so it cannot
    /// leave the overlap out: the insert panics instead of changing `T`.
    #[test]
    #[should_panic(expected = "could touch a span forgotten")]
    fn insert_reaching_a_forgotten_span_panics() {
        let mut set = IntervalSet::from_unsorted([iv(0, 2), iv(4, 6), iv(8, 10)]);
        set.forget_before(ms(7));
        set.insert(iv(5, 9));
    }

    #[test]
    fn hull_covers_both() {
        assert_eq!(iv(0, 2).hull(&iv(5, 6)), iv(0, 6));
        assert_eq!(iv(3, 8).hull(&iv(0, 5)), iv(0, 8));
    }

    #[test]
    #[should_panic(expected = "ends before it starts")]
    fn new_rejects_inverted() {
        let _ = Interval::new(ms(2), ms(1));
    }

    #[test]
    fn max_depth_figure_1c() {
        // Sequential: two requests back to back, depth never exceeds 1.
        assert_eq!(max_depth(&[iv(0, 2), iv(2, 4)]), 1);
        // Concurrent: the same two requests fully overlapped, depth 2.
        assert_eq!(max_depth(&[iv(0, 2), iv(0, 2)]), 2);
    }

    #[test]
    fn max_depth_partial_overlap() {
        // [0,4) and [2,6): depth 1 on [0,2), 2 on [2,4), 1 on [4,6).
        assert_eq!(max_depth(&[iv(0, 4), iv(2, 6)]), 2);
        assert_eq!(max_depth(&[iv(2, 6), iv(0, 4)]), 2);
    }

    /// The concurrency profile's peak depth on no intervals and on a single
    /// zero-length one: nothing is in flight in either case.
    #[test]
    fn concurrency_profile_empty_and_degenerate() {
        assert_eq!(max_depth(&[]), 0);
        assert_eq!(max_depth(&[iv(1, 1)]), 0);
    }
}
