//! Figure 9 — Set 3a: "pure" concurrent I/O.
//!
//! "Each process of IOzone accessed its own PVFS2 file, and each file is
//! hosted on an individual I/O server. We limited each file to locate on
//! one I/O server by setting the file stripe layout attributes. There were
//! eight I/O servers ... the POSIX interface, and the total data amount of
//! file accesses is 32GB." Processes vary 1–8. IOPS, BW and BPS correlate
//! correctly (~0.96); ARPT points the wrong way — more concurrency
//! finishes sooner while per-request response times inch *up*.

use crate::scenario::spec::{
    CaseDecl, CaseTemplate, Expect, Grid, LayoutSpec, Num, OutputSpec, Patch, ScaleKnob, Scenario,
    StorageSpec, WorkloadTemplate,
};
use bps_workloads::iozone::IozoneMode;

/// Record size of the per-process sequential reads.
pub const RECORD_SIZE: u64 = 64 << 10;

/// The Set 3a sweep shape as data (shared with Figure 10): `np` processes
/// on 8 pinned servers, the scale's total bytes split over the processes.
pub fn concurrency_scenario(
    name: &str,
    title: &str,
    output: OutputSpec,
    expect: Vec<Expect>,
) -> Scenario {
    let mut base = CaseTemplate::new(
        StorageSpec::Pvfs { servers: 8 },
        WorkloadTemplate::Iozone {
            mode: IozoneMode::SeqRead,
            file_size: Num::KnobPerProcess {
                knob: ScaleKnob::Fig9Total,
            },
            record_size: Num::Abs { n: RECORD_SIZE },
            processes: 1,
            seed: 0,
        },
    );
    base.layout = Some(LayoutSpec::PinnedPerFile);
    Scenario {
        name: name.to_string(),
        title: title.to_string(),
        output,
        base,
        grid: Grid::single(
            (1..=8usize)
                .map(|n| {
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
        expect,
        verdict: None,
    }
}

/// The sweep as data.
pub fn scenario() -> Scenario {
    concurrency_scenario(
        "fig9",
        "Figure 9: CC under pure concurrency (per-process files, pinned servers)",
        OutputSpec::Cc,
        vec![
            Expect::correct("IOPS", 0.8),
            Expect::correct("BW", 0.8),
            Expect::correct("BPS", 0.8),
            Expect::wrong("ARPT"),
        ],
    )
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
    fn more_processes_finish_sooner() {
        let fig = run_tiny(&scenario()).into_cc();
        assert!(fig.cases[7].exec_s < fig.cases[0].exec_s / 3.0, "{fig}");
    }
}
