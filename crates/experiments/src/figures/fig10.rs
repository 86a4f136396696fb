//! Figure 10 — detail: ARPT vs execution time across concurrency.
//!
//! "Compared with the variation of application execution time, ARPT has a
//! smaller variation, so it is not able to reflect the overall computer
//! performance accurately."

use crate::figures::fig09::concurrency_scenario;
use crate::scenario::spec::{OutputSpec, Scenario};

/// The sweep as data.
pub fn scenario() -> Scenario {
    concurrency_scenario(
        "fig10",
        "Figure 10: ARPT vs execution time across I/O concurrency",
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
    fn arpt_variation_much_smaller_than_exec_variation() {
        let s = detail_tiny(&scenario());
        let arpts: Vec<f64> = s.points.iter().map(|p| p.1).collect();
        let execs: Vec<f64> = s.points.iter().map(|p| p.2).collect();
        let rel = |v: &[f64]| {
            let max = v.iter().cloned().fold(f64::MIN, f64::max);
            let min = v.iter().cloned().fold(f64::MAX, f64::min);
            (max - min) / max
        };
        assert!(
            rel(&arpts) < rel(&execs) / 3.0,
            "ARPT spread {} vs exec spread {}: {s}",
            rel(&arpts),
            rel(&execs)
        );
    }
}
