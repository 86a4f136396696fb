//! Sequential read-ahead.
//!
//! "Data prefetching may also prefetch data more than required" (paper §I).
//! The model: when a reader is detected to be sequential, each file-system
//! fetch is extended by a read-ahead window; subsequent reads that land
//! inside the prefetched range are served from memory. The file system
//! moves more bytes than the application required *so far* — another source
//! of the bandwidth-vs-BPS divergence of Figure 1(b).

use bps_core::extent::Extent;
use serde::{Deserialize, Serialize};

/// Read-ahead configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct PrefetchConfig {
    /// Extra bytes fetched beyond each sequential read.
    pub window: u64,
}

/// What the middleware should do for one read.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PrefetchDecision {
    /// Entirely served from previously prefetched data.
    Hit,
    /// Fetch this extent from the file system (includes the read-ahead).
    Fetch(Extent),
}

/// Per-(process, file) read-ahead state.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PrefetchState {
    /// The offset one past the last byte the application read.
    next_expected: u64,
    /// The end of data already staged in memory.
    prefetched_end: u64,
    /// Whether the previous read was sequential (arms the read-ahead).
    sequential: bool,
}

impl PrefetchState {
    /// Decide how to serve a read of `extent` from a file of `file_size`
    /// bytes, and update the state.
    pub fn on_read(
        &mut self,
        extent: Extent,
        cfg: &PrefetchConfig,
        file_size: u64,
    ) -> PrefetchDecision {
        let sequential = extent.offset == self.next_expected;
        self.next_expected = extent.end();
        if sequential && extent.end() <= self.prefetched_end {
            self.sequential = true;
            return PrefetchDecision::Hit;
        }
        // Fetch; extend by the window only once the stream looks sequential.
        let ahead = if sequential && self.sequential {
            cfg.window
        } else {
            0
        };
        self.sequential = sequential;
        let start = extent.offset.min(file_size);
        let end = (extent.end() + ahead).min(file_size).max(start);
        self.prefetched_end = end;
        PrefetchDecision::Fetch(Extent::new(start, end - start))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const CFG: PrefetchConfig = PrefetchConfig { window: 1000 };

    #[test]
    fn first_two_reads_fetch_then_readahead_arms() {
        let mut st = PrefetchState::default();
        // First read: not yet trusted as sequential — fetch exactly.
        let d = st.on_read(Extent::new(0, 100), &CFG, 1 << 20);
        assert_eq!(d, PrefetchDecision::Fetch(Extent::new(0, 100)));
        // Second sequential read: read-ahead kicks in.
        let d = st.on_read(Extent::new(100, 100), &CFG, 1 << 20);
        assert_eq!(d, PrefetchDecision::Fetch(Extent::new(100, 1100)));
        // Staged through 1200: reads 200..1200 are all hits.
        for k in 0..10 {
            let d = st.on_read(Extent::new(200 + k * 100, 100), &CFG, 1 << 20);
            assert_eq!(d, PrefetchDecision::Hit, "read {k}");
        }
        // Past the staged range: fetch again with read-ahead.
        let d = st.on_read(Extent::new(1200, 100), &CFG, 1 << 20);
        assert_eq!(d, PrefetchDecision::Fetch(Extent::new(1200, 1100)));
    }

    #[test]
    fn random_read_disarms() {
        let mut st = PrefetchState::default();
        st.on_read(Extent::new(0, 100), &CFG, 1 << 20);
        st.on_read(Extent::new(100, 100), &CFG, 1 << 20);
        // Jump: plain fetch, no read-ahead.
        let d = st.on_read(Extent::new(50_000, 100), &CFG, 1 << 20);
        assert_eq!(d, PrefetchDecision::Fetch(Extent::new(50_000, 100)));
    }

    #[test]
    fn readahead_clamped_at_eof() {
        let mut st = PrefetchState::default();
        st.on_read(Extent::new(0, 100), &CFG, 250);
        let d = st.on_read(Extent::new(100, 100), &CFG, 250);
        assert_eq!(d, PrefetchDecision::Fetch(Extent::new(100, 150)));
    }

    #[test]
    fn hit_requires_full_containment() {
        let mut st = PrefetchState::default();
        st.on_read(Extent::new(0, 100), &CFG, 1 << 20);
        st.on_read(Extent::new(100, 100), &CFG, 1 << 20); // staged to 1200
                                                          // A read ending exactly at the staged edge is a hit...
        assert_eq!(
            st.on_read(Extent::new(200, 1000), &CFG, 1 << 20),
            PrefetchDecision::Hit
        );
        // ...but one byte past is a fetch.
        let d = st.on_read(Extent::new(1200, 1), &CFG, 1 << 20);
        assert!(matches!(d, PrefetchDecision::Fetch(_)));
    }
}
