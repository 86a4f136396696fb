//! Figure 12 — Set 4: various additional data movement (data sieving).
//!
//! "We ran Hpio ... noncontiguous file read ... PVFS2 ... 4 I/O servers.
//! Data sieving was enabled ... region count 4096000, region size 256
//! bytes ... region spacing from 8 bytes to 4096 bytes." IOPS, ARPT and
//! BPS stay correct (~0.92); **bandwidth points the wrong way** — the file
//! system moves ever more hole bytes at a healthy rate while the
//! application only gets slower. "File system performance does not
//! represent I/O system performance."

use crate::scenario::spec::{
    CaseDecl, CaseTemplate, Expect, Grid, Num, OutputSpec, Patch, ScaleKnob, Scenario, StorageSpec,
    WorkloadTemplate,
};

/// The region spacings swept (bytes of hole between 256-byte regions).
pub const SPACINGS: [u64; 5] = [8, 64, 256, 1024, 4096];

/// MPI processes issuing the noncontiguous reads.
pub const PROCESSES: usize = 4;

/// The sweep as data. The regions-per-call expression keeps roughly 40
/// noncontiguous calls per sweep point at any scale, matching the paper's
/// regions-per-call at full scale.
pub fn scenario() -> Scenario {
    Scenario {
        name: "fig12".to_string(),
        title: "Figure 12: CC with data sieving (additional data movement)".to_string(),
        output: OutputSpec::Cc,
        base: CaseTemplate::new(
            StorageSpec::Pvfs { servers: 4 },
            WorkloadTemplate::Hpio {
                region_count: Num::Knob {
                    knob: ScaleKnob::Fig12Regions,
                },
                region_size: 256,
                region_spacing: Num::Abs { n: SPACINGS[0] },
                regions_per_call: Num::KnobScaled {
                    knob: ScaleKnob::Fig12Regions,
                    div: 40,
                    min: 256,
                    max: 4096,
                },
                processes: PROCESSES,
                collective: false,
            },
        ),
        grid: Grid::single(
            SPACINGS
                .iter()
                .map(|&spacing| {
                    CaseDecl::new(
                        format!("gap={spacing}B"),
                        Patch {
                            region_spacing: Some(spacing),
                            ..Patch::none()
                        },
                    )
                })
                .collect(),
        ),
        metrics: Vec::new(),
        deadline_ms: None,
        expect: vec![
            Expect::correct("IOPS", 0.7),
            Expect::correct("ARPT", 0.7),
            Expect::correct("BPS", 0.7),
            Expect::wrong("BW"),
        ],
        verdict: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::figures::common::{assert_cc_expectations, run_tiny};

    #[test]
    fn bw_wrong_direction_others_correct() {
        let fig = run_tiny(&scenario()).into_cc();
        assert_cc_expectations(&fig, &scenario().expect);
    }

    #[test]
    fn wider_gaps_slow_the_application() {
        let fig = run_tiny(&scenario()).into_cc();
        let first = &fig.cases[0];
        let last = &fig.cases[fig.cases.len() - 1];
        assert!(last.exec_s > 2.0 * first.exec_s, "{fig}");
        // ...while the BW number stays healthy or improves.
        assert!(last.bw >= first.bw * 0.9, "{fig}");
    }
}
