//! Figure 2: measuring `T` for four concurrent requests.
//!
//! R1, R2, R3 overlap each other partially; R4 is disjoint after an idle
//! gap. `T = Δt1 + Δt2`: the merged extent of R1–R3 plus R4's own time;
//! the idle period between them is excluded.

use bps_core::interval::{Interval, IntervalSet};
use bps_core::time::{Dur, Nanos};
use std::fmt::Write;

/// The four requests of Figure 2 (times in milliseconds, as drawn:
/// t1..t8 at 0, 1, 2, 4, 5, 6, 7, 9).
pub fn requests() -> Vec<Interval> {
    let ms = Nanos::from_millis;
    vec![
        Interval::new(ms(0), ms(4)), // R1: t1..t4
        Interval::new(ms(1), ms(5)), // R2: t2..t5
        Interval::new(ms(2), ms(6)), // R3: t3..t6
        Interval::new(ms(7), ms(9)), // R4: t7..t8 (after idle t6..t7)
    ]
}

/// The measured `T` and its decomposition.
pub fn measure() -> (Dur, Vec<Interval>, Vec<Interval>) {
    let set = IntervalSet::from_unsorted(requests());
    (set.total(), set.spans().to_vec(), set.gaps())
}

/// Render the figure's measurement.
pub fn report() -> String {
    let (t, spans, gaps) = measure();
    let mut out = String::new();
    writeln!(out, "=== Figure 2: overlapped I/O time ===").unwrap();
    for (i, iv) in requests().iter().enumerate() {
        writeln!(out, "  R{} = [{}, {})", i + 1, iv.start, iv.end).unwrap();
    }
    for (i, span) in spans.iter().enumerate() {
        writeln!(
            out,
            "  Δt{} = [{}, {}) = {}",
            i + 1,
            span.start,
            span.end,
            span.duration()
        )
        .unwrap();
    }
    for gap in gaps {
        writeln!(out, "  idle  [{}, {}) excluded", gap.start, gap.end).unwrap();
    }
    writeln!(out, "  T = Δt1 + Δt2 = {t}").unwrap();
    writeln!(
        out,
        "  (naive sum of response times would be {})",
        requests()
            .iter()
            .fold(Dur::ZERO, |acc, iv| acc + iv.duration())
    )
    .unwrap();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use bps_core::interval::paper_union_time;

    #[test]
    fn t_is_delta_t1_plus_delta_t2() {
        let (t, spans, gaps) = measure();
        assert_eq!(spans.len(), 2);
        assert_eq!(t, Dur::from_millis(6 + 2));
        assert_eq!(gaps.len(), 1);
        assert_eq!(gaps[0].duration(), Dur::from_millis(1));
        // Matches the paper's Figure 3 algorithm.
        assert_eq!(t, paper_union_time(&requests()));
    }

    #[test]
    fn naive_sum_overcounts() {
        let naive = requests()
            .iter()
            .fold(Dur::ZERO, |acc, iv| acc + iv.duration());
        let (t, _, _) = measure();
        assert_eq!(naive, Dur::from_millis(14));
        assert!(naive > t);
    }

    #[test]
    fn report_shows_decomposition() {
        let r = report();
        assert!(r.contains("Δt1") && r.contains("Δt2"));
        assert!(r.contains("idle"));
        assert!(r.contains("8.00ms"));
    }
}
