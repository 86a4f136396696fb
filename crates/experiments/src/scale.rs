//! Experiment scaling presets.
//!
//! The paper's runs move 16–64 GB per case; a simulated reproduction can
//! shrink the data volumes without changing any of the relationships the
//! figures demonstrate, because every metric and the execution time scale
//! together. Three presets:
//!
//! * [`Scale::paper`] — the paper's exact volumes. `reproduce all --paper`
//!   takes about 30 s of wall time on a 2-vCPU Xeon.
//! * [`Scale::quick`] — the default for the `reproduce` binary; `reproduce
//!   all --quick` takes under a second on the same host.
//! * [`Scale::tiny`] — for tests, the pinned goldens and the benchmark's
//!   smoke runs (milliseconds per figure).

use serde::{Deserialize, Serialize};

/// Data volumes for each experiment set.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Scale {
    /// Fig. 4: bytes read sequentially per device case (paper: 64 GB).
    pub fig4_file: u64,
    /// Figs. 5–8: bytes read per record-size case (paper: 16 GB).
    pub fig5_file: u64,
    /// Figs. 9–10: total bytes across processes (paper: 32 GB).
    pub fig9_total: u64,
    /// Fig. 11: shared-file bytes (paper: 32 GB).
    pub fig11_total: u64,
    /// Fig. 12: total region count (paper: 4 096 000).
    pub fig12_regions: u64,
    /// Number of repeated runs averaged per case (paper: 5).
    pub runs: u64,
}

impl Scale {
    /// The paper's full volumes.
    pub fn paper() -> Self {
        Scale {
            fig4_file: 64 << 30,
            fig5_file: 16 << 30,
            fig9_total: 32 << 30,
            fig11_total: 32 << 30,
            fig12_regions: 4_096_000,
            runs: 5,
        }
    }

    /// Default: everything shrunk to run in seconds.
    pub fn quick() -> Self {
        Scale {
            fig4_file: 1 << 30,
            fig5_file: 512 << 20,
            fig9_total: 512 << 20,
            fig11_total: 512 << 20,
            fig12_regions: 40_960,
            runs: 5,
        }
    }

    /// Minimal: for tests, goldens and smoke runs.
    pub fn tiny() -> Self {
        Scale {
            fig4_file: 64 << 20,
            fig5_file: 32 << 20,
            fig9_total: 64 << 20,
            fig11_total: 64 << 20,
            fig12_regions: 2_048,
            runs: 2,
        }
    }

    /// The seeds averaged per case ("We ran each set of experiments 5
    /// times, and the average was used as the results").
    pub fn seeds(&self) -> Vec<u64> {
        (1..=self.runs).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_matches_section_iv() {
        let s = Scale::paper();
        assert_eq!(s.fig4_file, 64 * 1024 * 1024 * 1024);
        assert_eq!(s.fig5_file, 16 * 1024 * 1024 * 1024);
        assert_eq!(s.fig12_regions, 4_096_000);
        assert_eq!(s.runs, 5);
        assert_eq!(s.seeds(), vec![1, 2, 3, 4, 5]);
    }

    #[test]
    fn presets_are_ordered() {
        let p = Scale::paper();
        let q = Scale::quick();
        let t = Scale::tiny();
        assert!(t.fig4_file < q.fig4_file && q.fig4_file < p.fig4_file);
        assert!(t.fig12_regions < q.fig12_regions && q.fig12_regions < p.fig12_regions);
    }
}
