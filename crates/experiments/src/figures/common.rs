//! Shared figure plumbing: CC bar charts and detail series.

use crate::runner::CasePoint;
use crate::scenario::spec::Expect;
use bps_core::correlation::{normalized_cc, CcOutcome};
use bps_core::metrics::{registry, MetricSelection};
use std::fmt;

/// One metric's correlation verdict in a [`CcFigure`].
#[derive(Debug, Clone)]
pub struct CcRow {
    /// Registry metric name ("IOPS", "BW", "ARPT", "BPS", "P99", ...).
    pub metric: String,
    /// The correlation outcome; `None` when the CC is undefined.
    pub outcome: Option<CcOutcome>,
    /// The cases whose value for this metric was non-finite — the reason
    /// an outcome is missing (e.g. every seed of that case panicked, or a
    /// zero-time run left the metric undefined).
    pub undefined_in: Vec<String>,
}

/// A reproduced CC bar chart (Figures 4–6, 9, 11, 12): the selected
/// registry metrics scored against execution time over the sweep's cases.
#[derive(Debug, Clone)]
pub struct CcFigure {
    /// Figure label.
    pub label: String,
    /// The averaged sweep points.
    pub cases: Vec<CasePoint>,
    /// One verdict per selected metric, in registry order.
    pub rows: Vec<CcRow>,
}

impl CcFigure {
    /// [`CcFigure::from_points_selected`] with the paper selection — the
    /// four metrics the paper's figures score.
    pub fn from_points(label: impl Into<String>, cases: Vec<CasePoint>) -> CcFigure {
        CcFigure::from_points_selected(label, cases, &MetricSelection::paper())
    }

    /// Score each selected metric over averaged case points. A metric with
    /// a non-finite value in any case gets no outcome, and the offending
    /// cases are recorded so the report can say *why* the CC is missing.
    pub fn from_points_selected(
        label: impl Into<String>,
        cases: Vec<CasePoint>,
        selection: &MetricSelection,
    ) -> CcFigure {
        let exec: Vec<f64> = cases.iter().map(|c| c.exec_s).collect();
        let rows = selection
            .metrics()
            .iter()
            .map(|m| {
                let values: Vec<f64> = cases
                    .iter()
                    .map(|c| c.metric(m.name()).unwrap_or(f64::NAN))
                    .collect();
                let undefined_in: Vec<String> = cases
                    .iter()
                    .zip(&values)
                    .filter(|(c, v)| !v.is_finite() || !c.exec_s.is_finite())
                    .map(|(c, _)| match c.failed {
                        // A case whose every seed failed carries the worst
                        // failure kind, so "why n/a" names it instead of
                        // leaving a bare NaN mystery.
                        Some(kind) => format!("{} [{}]", c.label, kind.name()),
                        None => c.label.clone(),
                    })
                    .collect();
                let outcome = if undefined_in.is_empty() {
                    normalized_cc(&values, &exec, m.expected_direction()).ok()
                } else {
                    None
                };
                CcRow {
                    metric: m.name().to_string(),
                    outcome,
                    undefined_in,
                }
            })
            .collect();
        CcFigure {
            label: label.into(),
            cases,
            rows,
        }
    }

    /// The row of a metric (case-insensitive), if it was selected.
    pub fn row(&self, metric: &str) -> Option<&CcRow> {
        self.rows
            .iter()
            .find(|r| r.metric.eq_ignore_ascii_case(metric))
    }

    /// Normalized CC of a metric, if defined.
    pub fn normalized(&self, metric: &str) -> Option<f64> {
        self.row(metric)
            .and_then(|r| r.outcome.map(|o| o.normalized))
    }

    /// True when the metric's observed direction matches Table 1.
    pub fn direction_correct(&self, metric: &str) -> Option<bool> {
        self.row(metric)
            .and_then(|r| r.outcome.map(|o| o.direction_correct))
    }
}

impl fmt::Display for CcFigure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Column labels and precisions come from the registry's display
        // hints, so the table renders any selection; under the paper
        // selection the output is byte-identical to the historical
        // hard-coded four-column table.
        let metrics: Vec<_> = self
            .rows
            .iter()
            .filter_map(|r| registry().find(&r.metric))
            .collect();
        writeln!(f, "=== {} ===", self.label)?;
        write!(f, "{:<14}", "case")?;
        for m in &metrics {
            write!(f, " {:>12}", m.col_label())?;
        }
        writeln!(f, " {:>10}", "exec(s)")?;
        for c in &self.cases {
            write!(f, "{:<14}", c.label)?;
            for m in &metrics {
                let v = c.metric(m.name()).unwrap_or(f64::NAN);
                write!(f, " {:>12.prec$}", v, prec = m.col_precision())?;
            }
            writeln!(f, " {:>10.3}", c.exec_s)?;
        }
        writeln!(f, "normalized CC vs execution time:")?;
        for row in &self.rows {
            match &row.outcome {
                Some(o) => writeln!(
                    f,
                    "  {:<5} {:>6.2}   ({})",
                    row.metric,
                    o.normalized,
                    if o.direction_correct {
                        "correct direction"
                    } else {
                        "WRONG direction"
                    }
                )?,
                None if !row.undefined_in.is_empty() => writeln!(
                    f,
                    "  {:<5}    n/a   (undefined in: {})",
                    row.metric,
                    row.undefined_in.join(", ")
                )?,
                None => writeln!(f, "  {:<5}    n/a", row.metric)?,
            }
        }
        Ok(())
    }
}

/// Assert that a figure meets a scenario's Table-1 expectations (test
/// helper shared by every figure module; panics with the figure rendered
/// so a failure shows the whole sweep).
pub fn assert_cc_expectations(fig: &CcFigure, expect: &[Expect]) {
    assert!(
        !expect.is_empty(),
        "no expectations to check for {}",
        fig.label
    );
    let violations = crate::scenario::engine::violations(
        &crate::scenario::engine::ScenarioOutput::Cc(fig.clone()),
        expect,
        None,
    );
    assert!(
        violations.is_empty(),
        "{}:\n  {}\n{fig}",
        fig.label,
        violations.join("\n  ")
    );
}

/// A detail figure (Figures 7, 8, 10): one metric plotted against execution
/// time over the sweep.
#[derive(Debug, Clone)]
pub struct DetailSeries {
    /// Figure label.
    pub label: String,
    /// Name of the highlighted metric.
    pub metric: String,
    /// (case label, metric value, execution seconds).
    pub points: Vec<(String, f64, f64)>,
}

impl DetailSeries {
    /// Extract a metric's series from averaged case points. Any registry
    /// metric name works (case-insensitive), provided the points were
    /// scored with a selection that includes it.
    pub fn from_points(
        label: impl Into<String>,
        metric: &str,
        cases: &[CasePoint],
    ) -> DetailSeries {
        DetailSeries {
            label: label.into(),
            metric: metric.to_string(),
            points: cases
                .iter()
                .map(|c| {
                    (
                        c.label.clone(),
                        c.metric(metric).unwrap_or(f64::NAN),
                        c.exec_s,
                    )
                })
                .collect(),
        }
    }
}

impl fmt::Display for DetailSeries {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "=== {} ===", self.label)?;
        writeln!(
            f,
            "{:<14} {:>14} {:>16}",
            "case", self.metric, "exec time (s)"
        )?;
        for (label, value, exec) in &self.points {
            writeln!(f, "{label:<14} {value:>14.5} {exec:>16.3}")?;
        }
        Ok(())
    }
}

/// Run a scenario at `--tiny` scale with default options: the figure
/// tests' one way into the engine.
#[cfg(test)]
pub(crate) fn run_tiny(
    sc: &crate::scenario::spec::Scenario,
) -> crate::scenario::engine::ScenarioOutput {
    crate::scenario::engine::run_with_opts(
        sc,
        &crate::scale::Scale::tiny(),
        crate::sweep::SweepExec::default(),
        true,
        &crate::scenario::engine::RunOpts::default(),
    )
    .expect("bundled scenario is valid")
}

/// [`run_tiny`] of a detail scenario: its series.
#[cfg(test)]
pub(crate) fn detail_tiny(sc: &crate::scenario::spec::Scenario) -> DetailSeries {
    match run_tiny(sc) {
        crate::scenario::engine::ScenarioOutput::Detail(s) => s,
        crate::scenario::engine::ScenarioOutput::Cc(fig) => {
            panic!("scenario produced a CC figure: {}", fig.label)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pt(label: &str, iops: f64, bw: f64, arpt: f64, bps: f64, exec_s: f64) -> CasePoint {
        CasePoint {
            label: label.into(),
            iops,
            bw,
            arpt,
            bps,
            exec_s,
            extra: Vec::new(),
            failed: None,
        }
    }

    /// Hand-built sweep where all four metrics behave (fixed request size):
    /// throughputs fall as time rises, latency rises.
    fn well_behaved() -> Vec<CasePoint> {
        (1..=5u32)
            .map(|k| {
                let t = k as f64;
                pt(
                    &format!("case{k}"),
                    100.0 / t,
                    50.0 / t,
                    0.001 * t,
                    6400.0 / t,
                    t,
                )
            })
            .collect()
    }

    #[test]
    fn all_metrics_correct_on_well_behaved_sweep() {
        let fig = CcFigure::from_points("test", well_behaved());
        for m in ["IOPS", "BW", "ARPT", "BPS"] {
            assert_eq!(fig.direction_correct(m), Some(true), "{m}");
            assert!(fig.normalized(m).unwrap() > 0.9, "{m}");
        }
        let shown = format!("{fig}");
        assert!(shown.contains("correct direction"));
        // The expectation helper agrees.
        let expect: Vec<Expect> = ["IOPS", "BW", "ARPT", "BPS"]
            .iter()
            .map(|m| Expect::correct(m, 0.9))
            .collect();
        assert_cc_expectations(&fig, &expect);
    }

    #[test]
    fn misleading_metric_flagged() {
        // IOPS rises with execution time (the Fig. 5 pathology).
        let cases: Vec<CasePoint> = (1..=5u32)
            .map(|k| {
                let t = k as f64;
                pt(
                    &format!("c{k}"),
                    100.0 * t,
                    50.0 / t,
                    0.001 * t,
                    6400.0 / t,
                    t,
                )
            })
            .collect();
        let fig = CcFigure::from_points("test", cases);
        assert_eq!(fig.direction_correct("IOPS"), Some(false));
        assert!(fig.normalized("IOPS").unwrap() < 0.0);
        assert_eq!(fig.direction_correct("BPS"), Some(true));
        assert!(format!("{fig}").contains("WRONG direction"));
    }

    #[test]
    #[should_panic(expected = "expected WRONG")]
    fn expectation_helper_panics_on_violation() {
        let fig = CcFigure::from_points("test", well_behaved());
        assert_cc_expectations(&fig, &[Expect::wrong("IOPS")]);
    }

    #[test]
    fn selected_figure_scores_extras_and_renders_their_columns() {
        // p99 falls with execution time here: direction "wrong" for a
        // Positive-direction metric is irrelevant — we only check plumbing.
        let mut cases = well_behaved();
        for (k, c) in cases.iter_mut().enumerate() {
            c.extra = vec![("P99".to_string(), 0.002 * (k + 1) as f64)];
        }
        let sel = MetricSelection::parse(&["BPS", "p99"]).unwrap();
        let fig = CcFigure::from_points_selected("test", cases, &sel);
        let rows: Vec<&str> = fig.rows.iter().map(|r| r.metric.as_str()).collect();
        assert_eq!(rows, ["BPS", "P99"]);
        // Lookup is case-insensitive and the extended metric scores.
        assert_eq!(fig.direction_correct("p99"), Some(true));
        assert!(fig.normalized("P99").unwrap() > 0.9);
        assert!(fig.normalized("IOPS").is_none());
        let shown = format!("{fig}");
        assert!(shown.contains("P99(s)"), "{shown}");
        assert!(!shown.contains("BW(MB/s)"), "{shown}");
    }

    #[test]
    fn detail_series_extracts_metric() {
        let cases = well_behaved();
        let s = DetailSeries::from_points("fig", "IOPS", &cases);
        assert_eq!(s.points.len(), 5);
        assert_eq!(s.points[0].1, 100.0);
        assert!(format!("{s}").contains("exec time"));
    }

    #[test]
    fn nan_metric_yields_none_and_names_the_case() {
        let mut cases = well_behaved();
        cases[0].bw = f64::NAN;
        cases[2].bw = f64::NAN;
        let fig = CcFigure::from_points("test", cases);
        assert!(fig.normalized("BW").is_none());
        assert!(fig.normalized("BPS").is_some());
        // The report names the cases that blanked the CC.
        assert_eq!(fig.row("BW").unwrap().undefined_in, vec!["case1", "case3"]);
        let shown = format!("{fig}");
        assert!(
            shown.contains("n/a   (undefined in: case1, case3)"),
            "{shown}"
        );
    }

    #[test]
    fn failed_case_annotates_the_undefined_report_with_its_kind() {
        let mut cases = well_behaved();
        cases[1].iops = f64::NAN;
        cases[1].bw = f64::NAN;
        cases[1].arpt = f64::NAN;
        cases[1].bps = f64::NAN;
        cases[1].exec_s = f64::NAN;
        cases[1].failed = Some(crate::supervise::FailureKind::Timeout);
        let fig = CcFigure::from_points("test", cases);
        assert_eq!(
            fig.row("BPS").unwrap().undefined_in,
            vec!["case2 [timeout]"]
        );
        let shown = format!("{fig}");
        assert!(
            shown.contains("n/a   (undefined in: case2 [timeout])"),
            "{shown}"
        );
    }

    #[test]
    fn nan_exec_time_blanks_every_metric_with_the_case_named() {
        let mut cases = well_behaved();
        cases[1].exec_s = f64::NAN;
        let fig = CcFigure::from_points("test", cases);
        for m in ["IOPS", "BW", "ARPT", "BPS"] {
            assert!(fig.normalized(m).is_none(), "{m}");
            assert_eq!(fig.row(m).unwrap().undefined_in, vec!["case2"], "{m}");
        }
    }
}
