//! Extension: the Set 2 sweep with *writes*.
//!
//! The paper's evaluation reads; IOzone also tests writes, and nothing in
//! the BPS definition is read-specific ("Letting B denote the number of
//! I/O blocks (Read/Write)"). This module repeats the record-size sweep
//! with sequential writes on both devices and checks the verdicts carry
//! over: IOPS and ARPT still mislead, BW and BPS still track the
//! application.

use crate::figures::common::CcFigure;
use crate::figures::fig05::{record_size_scenario, size_sweep_expect};
use crate::scale::Scale;
use crate::scenario::engine::{self, RunOpts};
use crate::scenario::spec::{OutputSpec, Scenario, StorageSpec};
use crate::sweep::SweepExec;
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

/// Run the write sweep on one device.
pub fn run_on(storage: StorageSpec, scale: &Scale, exec: SweepExec, opts: &RunOpts) -> CcFigure {
    let sc = match storage {
        StorageSpec::Hdd => scenario_hdd(),
        StorageSpec::Ssd => scenario_ssd(),
        StorageSpec::Pvfs { .. } => panic!("the write extension sweeps local devices only"),
    };
    engine::run_with_opts(&sc, scale, exec, true, opts)
        .expect("bundled scenario is valid")
        .into_cc()
}

/// Both device sweeps.
pub fn report(scale: &Scale, exec: SweepExec, opts: &RunOpts) -> String {
    format!(
        "{}\n{}",
        run_on(StorageSpec::Hdd, scale, exec, opts),
        run_on(StorageSpec::Ssd, scale, exec, opts)
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::figures::common::assert_cc_expectations;

    #[test]
    fn write_sweep_same_verdicts_as_reads() {
        for (storage, sc) in [
            (StorageSpec::Hdd, scenario_hdd()),
            (StorageSpec::Ssd, scenario_ssd()),
        ] {
            let fig = run_on(
                storage,
                &Scale::tiny(),
                SweepExec::from_env(None),
                &RunOpts::default(),
            );
            assert_cc_expectations(&fig, &sc.expect);
        }
    }

    #[test]
    fn ssd_writes_slower_than_reads_at_same_size() {
        // The SSD's program latency exceeds its read latency; sanity-check
        // the asymmetry survives the full stack.
        let scale = Scale::tiny();
        let writes = run_on(
            StorageSpec::Ssd,
            &scale,
            SweepExec::from_env(None),
            &RunOpts::default(),
        );
        let reads =
            crate::figures::fig06::run(&scale, SweepExec::from_env(None), &RunOpts::default());
        let w4k = writes.cases[0].exec_s;
        let r4k = reads.cases[0].exec_s;
        assert!(w4k > r4k, "write {w4k} vs read {r4k}");
    }
}
