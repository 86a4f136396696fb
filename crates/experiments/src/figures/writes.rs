//! Extension: the Set 2 sweep with *writes*.
//!
//! The paper's evaluation reads; IOzone also tests writes, and nothing in
//! the BPS definition is read-specific ("Letting B denote the number of
//! I/O blocks (Read/Write)"). This module repeats the record-size sweep
//! with sequential writes on both devices and checks the verdicts carry
//! over: IOPS and ARPT still mislead, BW and BPS still track the
//! application.

use crate::figures::fig05::{record_size_scenario, size_sweep_expect};
use crate::scenario::spec::{OutputSpec, Scenario, StorageSpec};
use bps_workloads::iozone::IozoneMode;

fn write_scenario(name: &str, storage: StorageSpec, device: &str) -> Scenario {
    record_size_scenario(
        name,
        &format!("Extension: CC across I/O sizes, sequential WRITES ({device})"),
        storage,
        IozoneMode::SeqWrite,
        OutputSpec::Cc,
        size_sweep_expect(None),
    )
}

/// The HDD write sweep as data.
pub fn scenario_hdd() -> Scenario {
    write_scenario("writes-hdd", StorageSpec::Hdd, "HDD")
}

/// The SSD write sweep as data.
pub fn scenario_ssd() -> Scenario {
    write_scenario("writes-ssd", StorageSpec::Ssd, "SSD")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::figures::common::{assert_cc_expectations, run_tiny};

    #[test]
    fn write_sweep_same_verdicts_as_reads() {
        for sc in [scenario_hdd(), scenario_ssd()] {
            assert_cc_expectations(&run_tiny(&sc).into_cc(), &sc.expect);
        }
    }

    #[test]
    fn ssd_writes_slower_than_reads_at_same_size() {
        // The SSD's program latency exceeds its read latency; sanity-check
        // the asymmetry survives the full stack.
        let writes = run_tiny(&scenario_ssd()).into_cc();
        let reads = run_tiny(&crate::figures::fig06::scenario()).into_cc();
        let w4k = writes.cases[0].exec_s;
        let r4k = reads.cases[0].exec_s;
        assert!(w4k > r4k, "write {w4k} vs read {r4k}");
    }
}
