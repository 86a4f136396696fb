//! Figure 11 — Set 3b: IOR shared-file concurrency.
//!
//! "We ran IOR with the MPI-IO interface to access a shared PVFS2 file,
//! which is striped across the underlying 8 I/O servers with a default
//! stripe layout. Each of n MPI processes is responsible for reading its
//! own 1/n of a 32 GB file ... fixed transfer size (64KB)." Processes vary
//! 1–32. IOPS/BW/BPS stay correct (~0.91); ARPT again points the wrong
//! way (paper: ~0.39) as server queues grow with fan-in.

use crate::scenario::spec::{
    CaseDecl, CaseTemplate, Expect, Grid, Num, OutputSpec, Patch, ScaleKnob, Scenario, StorageSpec,
    WorkloadTemplate,
};

/// The process counts swept.
pub const PROCESS_COUNTS: [usize; 6] = [1, 2, 4, 8, 16, 32];

/// The IOR transfer size (the paper's 64 KB).
pub const TRANSFER_SIZE: u64 = 64 << 10;

/// The sweep as data.
pub fn scenario() -> Scenario {
    Scenario {
        name: "fig11".to_string(),
        title: "Figure 11: CC for IOR on a shared striped file".to_string(),
        output: OutputSpec::Cc,
        base: CaseTemplate::new(
            StorageSpec::Pvfs { servers: 8 },
            WorkloadTemplate::IorShared {
                file_size: Num::Knob {
                    knob: ScaleKnob::Fig11Total,
                },
                transfer_size: TRANSFER_SIZE,
                write: false,
                processes: 1,
            },
        ),
        grid: Grid::single(
            PROCESS_COUNTS
                .iter()
                .map(|&n| {
                    CaseDecl::new(
                        format!("np={n}"),
                        Patch {
                            processes: Some(n),
                            ..Patch::none()
                        },
                    )
                })
                .collect(),
        ),
        metrics: Vec::new(),
        deadline_ms: None,
        expect: vec![
            Expect::correct("IOPS", 0.6),
            Expect::correct("BW", 0.6),
            Expect::correct("BPS", 0.6),
            Expect::wrong("ARPT"),
        ],
        verdict: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::figures::common::{assert_cc_expectations, run_tiny};

    #[test]
    fn throughput_metrics_correct_arpt_wrong() {
        let fig = run_tiny(&scenario()).into_cc();
        assert_cc_expectations(&fig, &scenario().expect);
    }

    #[test]
    fn speedup_then_saturation() {
        let fig = run_tiny(&scenario()).into_cc();
        let t = |label: &str| fig.cases.iter().find(|c| c.label == label).unwrap().exec_s;
        // Concurrency helps early...
        assert!(t("np=8") < t("np=1"), "{fig}");
        // ...but the last doubling buys little (servers saturated).
        let ratio = t("np=32") / t("np=16");
        assert!(ratio > 0.6, "still scaling linearly at np=32? {fig}");
    }

    #[test]
    fn arpt_grows_under_fan_in() {
        let fig = run_tiny(&scenario()).into_cc();
        let a = |label: &str| fig.cases.iter().find(|c| c.label == label).unwrap().arpt;
        assert!(a("np=32") > a("np=1"), "{fig}");
    }
}
