//! §IV.C.5 — summary of experiment results.
//!
//! "BPS is the only metric that works well for all the scenarios. BPS
//! correctly correlates with the overall computer performance in all the
//! tests, and achieves high CC values." The paper's headline: BPS has a
//! 0.91 correlation coefficient overall.

use crate::figures::common::CcFigure;
use bps_core::metrics::paper_metrics;
use std::fmt::Write;

/// The bundled scenarios the summary scores, by registry name: every CC
/// figure of the paper.
pub const FIGURES: [&str; 6] = ["fig4", "fig5", "fig6", "fig9", "fig11", "fig12"];

/// The cross-experiment verdict per metric: `(name, mean normalized CC,
/// number of scenarios with the wrong direction)`.
pub fn verdicts(figures: &[CcFigure]) -> Vec<(String, f64, usize)> {
    paper_metrics()
        .iter()
        .map(|m| m.name())
        .map(|m| {
            let ccs: Vec<f64> = figures.iter().filter_map(|f| f.normalized(m)).collect();
            let mean = ccs.iter().sum::<f64>() / ccs.len() as f64;
            let wrong = figures
                .iter()
                .filter(|f| f.direction_correct(m) == Some(false))
                .count();
            (m.to_string(), mean, wrong)
        })
        .collect()
}

/// Render the summary table over the [`FIGURES`] sweeps' figures.
pub fn render(figures: &[CcFigure]) -> String {
    let mut out = String::new();
    writeln!(out, "=== Summary (paper §IV.C.5) ===").unwrap();
    writeln!(
        out,
        "{:<6} {:>14} {:>22}",
        "metric", "mean norm. CC", "wrong-direction cases"
    )
    .unwrap();
    for (name, mean, wrong) in verdicts(figures) {
        writeln!(out, "{name:<6} {mean:>14.3} {wrong:>22}").unwrap();
    }
    writeln!(
        out,
        "\nBPS is the only metric correct in every scenario (paper: ~0.91 mean CC)."
    )
    .unwrap();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::figures::common::run_tiny;
    use crate::scenario::registry;

    #[test]
    fn bps_wins_everywhere_others_fail_somewhere() {
        let figures: Vec<CcFigure> = FIGURES
            .iter()
            .map(|name| run_tiny(&registry::find(name).unwrap()).into_cc())
            .collect();
        let v = verdicts(&figures);
        let get = |m: &str| v.iter().find(|(n, _, _)| n == m).unwrap().clone();
        // BPS: correct in all six scenarios, high mean CC.
        let (_, bps_mean, bps_wrong) = get("BPS");
        assert_eq!(bps_wrong, 0, "{figures:?}");
        assert!(bps_mean > 0.75, "BPS mean {bps_mean}");
        // Every conventional metric misleads in at least one scenario.
        for m in ["IOPS", "BW", "ARPT"] {
            let (_, _, wrong) = get(m);
            assert!(wrong >= 1, "{m} never wrong?");
        }
        // ARPT specifically fails the concurrency sets (paper Figs. 9/11).
        let (_, _, arpt_wrong) = get("ARPT");
        assert!(arpt_wrong >= 2);
    }
}
