//! Figure 7 — detail: IOPS vs application execution time (HDD).
//!
//! The paper's anchors: at 4 KB records, IOPS ≈ 5156 while the 16 GB read
//! takes 809.6 s; at 64 KB, IOPS drops to 732 while the run *speeds up* to
//! 358.1 s. "Obviously, the IOPS is largely decreased, but the overall
//! computer performance is largely increased."

use crate::figures::fig05::record_size_scenario;
use crate::scenario::spec::{OutputSpec, Scenario, StorageSpec};
use bps_workloads::iozone::IozoneMode;

/// The sweep as data.
pub fn scenario() -> Scenario {
    record_size_scenario(
        "fig7",
        "Figure 7: IOPS vs execution time across I/O sizes (HDD)",
        StorageSpec::Hdd,
        IozoneMode::SeqRead,
        OutputSpec::Detail {
            metric: "IOPS".to_string(),
        },
        Vec::new(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::figures::common::detail_tiny;

    #[test]
    fn iops_falls_while_time_falls() {
        let s = detail_tiny(&scenario());
        let first = &s.points[0]; // 4 KB
        let last = &s.points[s.points.len() - 1]; // 8 MB
        assert!(first.1 > 10.0 * last.1, "IOPS should collapse: {s}");
        assert!(first.2 > 2.0 * last.2, "exec time should shrink: {s}");
    }

    #[test]
    fn iops_anchor_order_of_magnitude() {
        // At 4 KB sequential HDD records the simulator should land in the
        // same order of magnitude as the paper's 5156 IOPS.
        let s = detail_tiny(&scenario());
        let iops_4k = s.points[0].1;
        assert!((2000.0..12000.0).contains(&iops_4k), "4KB IOPS = {iops_4k}");
    }
}
