//! Figure 6 — Set 2 on SSD: various I/O request sizes.
//!
//! The same sweep as Figure 5 on the PCI-E SSD. Same verdicts: BW and BPS
//! correct, IOPS and ARPT direction-wrong — the pathology is about request
//! sizing, not the medium.

use crate::figures::fig05::{record_size_scenario, size_sweep_expect};
use crate::scenario::spec::{OutputSpec, Scenario, StorageSpec};
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::figures::common::{assert_cc_expectations, run_tiny};

    #[test]
    fn same_verdicts_as_hdd() {
        let fig = run_tiny(&scenario()).into_cc();
        assert_cc_expectations(&fig, &scenario().expect);
    }

    #[test]
    fn ssd_faster_than_hdd_at_small_records() {
        let ssd = run_tiny(&scenario()).into_cc();
        let hdd = run_tiny(&crate::figures::fig05::scenario()).into_cc();
        assert!(ssd.cases[0].exec_s < hdd.cases[0].exec_s);
    }
}
