//! Figure 4 — Set 1: various storage devices.
//!
//! "We ran IOzone in single process mode to read a 64GB file sequentially
//! in different storage device configurations ... local file systems
//! mounted on HDD, SSD, and a PVFS2 file system ... from 1 I/O server to 8
//! I/O servers." All four metrics correlate strongly and correctly here —
//! the point of the figure is that conventional metrics *do* work for
//! plain device upgrades.
//!
//! The paper does not state the IOzone record size; we use 1 MB so that a
//! single reader's requests span multiple 64 KB stripes and the PVFS
//! server count actually matters.

use crate::scenario::spec::{
    CaseDecl, CaseTemplate, Expect, Grid, Num, OutputSpec, Patch, ScaleKnob, Scenario, StorageSpec,
    WorkloadTemplate,
};
use bps_workloads::iozone::IozoneMode;

/// Record size used for the sequential read.
pub const RECORD_SIZE: u64 = 1 << 20;

/// The storage cases, in the paper's order.
pub fn storages() -> Vec<(String, StorageSpec)> {
    let mut v = vec![
        ("hdd".to_string(), StorageSpec::Hdd),
        ("ssd".to_string(), StorageSpec::Ssd),
    ];
    for servers in 1..=8 {
        v.push((format!("pvfs-{servers}"), StorageSpec::Pvfs { servers }));
    }
    v
}

/// The sweep as data.
pub fn scenario() -> Scenario {
    Scenario {
        name: "fig4".to_string(),
        title: "Figure 4: CC across storage devices".to_string(),
        output: OutputSpec::Cc,
        base: CaseTemplate::new(
            StorageSpec::Hdd,
            WorkloadTemplate::Iozone {
                mode: IozoneMode::SeqRead,
                file_size: Num::Knob {
                    knob: ScaleKnob::Fig4File,
                },
                record_size: Num::Abs { n: RECORD_SIZE },
                processes: 1,
                seed: 0,
            },
        ),
        grid: Grid::single(
            storages()
                .into_iter()
                .map(|(label, storage)| {
                    CaseDecl::new(
                        label,
                        Patch {
                            storage: Some(storage),
                            ..Patch::none()
                        },
                    )
                })
                .collect(),
        ),
        metrics: Vec::new(),
        deadline_ms: None,
        expect: ["IOPS", "BW", "ARPT", "BPS"]
            .iter()
            .map(|m| Expect::correct(m, 0.7))
            .collect(),
        verdict: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::figures::common::{assert_cc_expectations, run_tiny};

    #[test]
    fn all_four_metrics_correct_and_strong() {
        let fig = run_tiny(&scenario()).into_cc();
        assert_cc_expectations(&fig, &scenario().expect);
    }

    #[test]
    fn ssd_fastest_pvfs_scales() {
        let fig = run_tiny(&scenario()).into_cc();
        let by_label = |l: &str| fig.cases.iter().find(|c| c.label == l).unwrap();
        assert!(by_label("ssd").exec_s < by_label("hdd").exec_s);
        assert!(by_label("pvfs-8").exec_s < by_label("pvfs-1").exec_s);
    }
}
