//! Figure 5 — Set 2 on HDD: various I/O request sizes.
//!
//! "We ran IOzone to read a 16GB file from the local file system with the
//! record size from 4KB to 8MB." Bandwidth and BPS correlate correctly
//! (~0.90); IOPS and ARPT come out with the *wrong* direction: bigger
//! records mean fewer, slower ops (IOPS down, ARPT up) yet much faster
//! applications.

use crate::scenario::spec::{
    CaseDecl, CaseTemplate, Expect, Grid, Num, OutputSpec, Patch, ScaleKnob, Scenario, StorageSpec,
    WorkloadTemplate,
};
use bps_workloads::iozone::IozoneMode;

/// The record-size sweep: 4 KB to 8 MB.
pub const RECORD_SIZES: [u64; 7] = [
    4 << 10,
    16 << 10,
    64 << 10,
    256 << 10,
    1 << 20,
    4 << 20,
    8 << 20,
];

/// Human label of a record size ("4KB", "1MB", ...).
pub fn label_of(rs: u64) -> String {
    if rs >= 1 << 20 {
        format!("{}MB", rs >> 20)
    } else {
        format!("{}KB", rs >> 10)
    }
}

/// The record-size grid dimension (shared by Figures 5–8 and the write
/// extension).
pub fn record_size_cells() -> Vec<CaseDecl> {
    RECORD_SIZES
        .iter()
        .map(|&rs| {
            CaseDecl::new(
                label_of(rs),
                Patch {
                    record_size: Some(rs),
                    ..Patch::none()
                },
            )
        })
        .collect()
}

/// The Set 2 sweep shape as data: IOzone over the record sizes on one
/// device, parameterized by mode and output so Figures 5–8 and the write
/// extension all declare one-liners.
pub fn record_size_scenario(
    name: &str,
    title: &str,
    storage: StorageSpec,
    mode: IozoneMode,
    output: OutputSpec,
    expect: Vec<Expect>,
) -> Scenario {
    Scenario {
        name: name.to_string(),
        title: title.to_string(),
        output,
        base: CaseTemplate::new(
            storage,
            WorkloadTemplate::Iozone {
                mode,
                file_size: Num::Knob {
                    knob: ScaleKnob::Fig5File,
                },
                record_size: Num::Abs { n: RECORD_SIZES[0] },
                processes: 1,
                seed: 0,
            },
        ),
        grid: Grid::single(record_size_cells()),
        metrics: Vec::new(),
        deadline_ms: None,
        expect,
        verdict: None,
    }
}

/// The Set 2 expectations: throughput-per-byte metrics track the
/// application, per-op metrics point the wrong way.
pub(crate) fn size_sweep_expect(bps_floor: Option<f64>) -> Vec<Expect> {
    vec![
        match bps_floor {
            Some(floor) => Expect::correct("BPS", floor),
            None => Expect::correct_direction("BPS"),
        },
        Expect::correct_direction("BW"),
        Expect::wrong("IOPS"),
        Expect::wrong("ARPT"),
    ]
}

/// The sweep as data.
pub fn scenario() -> Scenario {
    record_size_scenario(
        "fig5",
        "Figure 5: CC across I/O sizes (HDD)",
        StorageSpec::Hdd,
        IozoneMode::SeqRead,
        OutputSpec::Cc,
        size_sweep_expect(Some(0.7)),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::figures::common::{assert_cc_expectations, run_tiny};

    #[test]
    fn bw_and_bps_correct_iops_and_arpt_wrong() {
        let fig = run_tiny(&scenario()).into_cc();
        assert_cc_expectations(&fig, &scenario().expect);
    }

    #[test]
    fn bigger_records_run_faster() {
        let fig = run_tiny(&scenario()).into_cc();
        let first = &fig.cases[0];
        let last = &fig.cases[fig.cases.len() - 1];
        assert!(last.exec_s < first.exec_s / 2.0, "{fig}");
    }
}
