//! Figure 8 — detail: ARPT vs application execution time (SSD).
//!
//! The paper's anchors: ARPT grows from 0.14 ms at 4 KB records to
//! 22.35 ms at 4 MB — "meaning a decreased I/O performance. However, the
//! overall computer performance is largely increased."

use crate::figures::fig05::record_size_scenario;
use crate::scenario::spec::{OutputSpec, Scenario, StorageSpec};
use bps_workloads::iozone::IozoneMode;

/// The sweep as data.
pub fn scenario() -> Scenario {
    record_size_scenario(
        "fig8",
        "Figure 8: ARPT vs execution time across I/O sizes (SSD)",
        StorageSpec::Ssd,
        IozoneMode::SeqRead,
        OutputSpec::Detail {
            metric: "ARPT".to_string(),
        },
        Vec::new(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::figures::common::detail_tiny;

    #[test]
    fn arpt_rises_while_time_falls() {
        let s = detail_tiny(&scenario());
        let first = &s.points[0]; // 4 KB
        let large = s.points.iter().find(|p| p.0 == "4MB").unwrap();
        assert!(large.1 > 20.0 * first.1, "ARPT should grow: {s}");
        assert!(first.2 > large.2, "exec time should shrink: {s}");
    }

    #[test]
    fn arpt_anchors_near_paper() {
        let s = detail_tiny(&scenario());
        let arpt_4k = s.points[0].1;
        let arpt_4m = s.points.iter().find(|p| p.0 == "4MB").unwrap().1;
        // Paper: 0.00014 s and 0.02235 s.
        assert!((0.00008..0.0004).contains(&arpt_4k), "4KB ARPT {arpt_4k}");
        assert!((0.012..0.04).contains(&arpt_4m), "4MB ARPT {arpt_4m}");
    }
}
