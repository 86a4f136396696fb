//! Figure 6 — Set 2 on SSD: various I/O request sizes.
//!
//! The same sweep as Figure 5 on the PCI-E SSD. Same verdicts: BW and BPS
//! correct, IOPS and ARPT direction-wrong — the pathology is about request
//! sizing, not the medium.

use crate::figures::common::CcFigure;
use crate::figures::fig05::{record_size_scenario, size_sweep_expect};
use crate::scale::Scale;
use crate::scenario::engine::{self, RunOpts};
use crate::scenario::spec::{OutputSpec, Scenario, StorageSpec};
use crate::sweep::SweepExec;
use bps_workloads::iozone::IozoneMode;

/// The sweep as data.
pub fn scenario() -> Scenario {
    record_size_scenario(
        "fig6",
        "Figure 6: CC across I/O sizes (SSD)",
        StorageSpec::Ssd,
        IozoneMode::SeqRead,
        OutputSpec::Cc,
        size_sweep_expect(None),
    )
}

/// Run the SSD sweep and score the metrics.
pub fn run(scale: &Scale, exec: SweepExec, opts: &RunOpts) -> CcFigure {
    engine::run_with_opts(&scenario(), scale, exec, true, opts)
        .expect("bundled scenario is valid")
        .into_cc()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::figures::common::assert_cc_expectations;

    #[test]
    fn same_verdicts_as_hdd() {
        let fig = run(
            &Scale::tiny(),
            SweepExec::from_env(None),
            &RunOpts::default(),
        );
        assert_cc_expectations(&fig, &scenario().expect);
    }

    #[test]
    fn ssd_faster_than_hdd_at_small_records() {
        let scale = Scale::tiny();
        let ssd = run(&scale, SweepExec::from_env(None), &RunOpts::default());
        let hdd =
            crate::figures::fig05::run(&scale, SweepExec::from_env(None), &RunOpts::default());
        assert!(ssd.cases[0].exec_s < hdd.cases[0].exec_s);
    }
}
