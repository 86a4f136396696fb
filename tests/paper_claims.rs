//! The paper's specific claims, checked end-to-end against the simulated
//! I/O system (not hand-built traces): each figure's qualitative verdict
//! at test scale.

use bps::experiments::figures::{summary, CcFigure};
use bps::experiments::scale::Scale;
use bps::experiments::scenario::engine::{self, RunOpts};
use bps::experiments::scenario::registry;
use bps::experiments::sweep::SweepExec;

/// A bundled CC figure, looked up by registry name and run at test scale.
fn figure(name: &str) -> CcFigure {
    let sc = registry::find(name).unwrap_or_else(|| panic!("no bundled scenario `{name}`"));
    engine::run_with_opts(
        &sc,
        &Scale::tiny(),
        SweepExec::default(),
        true,
        &RunOpts::default(),
    )
    .expect("bundled scenario is valid")
    .into_cc()
}

#[test]
fn set1_devices_all_metrics_behave() {
    // Paper Fig. 4: "All of the four metrics perform well."
    let fig = figure("fig4");
    for m in ["IOPS", "BW", "ARPT", "BPS"] {
        assert_eq!(fig.direction_correct(m), Some(true), "{m}\n{fig}");
    }
}

#[test]
fn set2_sizes_iops_and_arpt_mislead() {
    // Paper Figs. 5/7: IOPS falls 5156 → 732 while the app runs 2.3x
    // faster; both IOPS and ARPT get the direction wrong.
    let fig = figure("fig5");
    assert_eq!(fig.direction_correct("IOPS"), Some(false), "{fig}");
    assert_eq!(fig.direction_correct("ARPT"), Some(false), "{fig}");
    assert_eq!(fig.direction_correct("BW"), Some(true), "{fig}");
    assert_eq!(fig.direction_correct("BPS"), Some(true), "{fig}");
    // The IOPS-vs-time anticorrelation is strong, as in the paper.
    assert!(fig.normalized("IOPS").unwrap() < -0.7, "{fig}");
}

#[test]
fn set3_concurrency_arpt_misleads() {
    // Paper Figs. 9/11: ARPT wrong under concurrency, throughput metrics
    // fine.
    let pure = figure("fig9");
    assert_eq!(pure.direction_correct("ARPT"), Some(false), "{pure}");
    assert_eq!(pure.direction_correct("BPS"), Some(true), "{pure}");
    let ior = figure("fig11");
    assert_eq!(ior.direction_correct("ARPT"), Some(false), "{ior}");
    assert_eq!(ior.direction_correct("BPS"), Some(true), "{ior}");
    // Paper: ARPT correlation is also weak in the IOR case (~0.39),
    // weaker than the throughput metrics' (~0.91).
    assert!(
        ior.normalized("ARPT").unwrap().abs() < ior.normalized("BPS").unwrap(),
        "{ior}"
    );
}

#[test]
fn set4_sieving_bandwidth_misleads() {
    // Paper Fig. 12: "BW has a wrong correlation direction, which will
    // mislead people."
    let fig = figure("fig12");
    assert_eq!(fig.direction_correct("BW"), Some(false), "{fig}");
    for m in ["IOPS", "ARPT", "BPS"] {
        assert_eq!(fig.direction_correct(m), Some(true), "{m}\n{fig}");
    }
}

#[test]
fn headline_bps_wins_every_scenario() {
    // Paper §IV.C.5: "BPS is the only metric that works well for all the
    // scenarios."
    let figures: Vec<CcFigure> = summary::FIGURES.iter().map(|name| figure(name)).collect();
    let verdicts = summary::verdicts(&figures);
    for (name, mean_cc, wrong) in verdicts {
        match name.as_str() {
            "BPS" => {
                assert_eq!(wrong, 0, "BPS misled somewhere");
                assert!(mean_cc > 0.75, "BPS mean CC {mean_cc}");
            }
            _ => assert!(wrong >= 1, "{name} should mislead in some scenario"),
        }
    }
}
