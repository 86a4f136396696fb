//! ROMIO-style data sieving.
//!
//! "Data sieving, a widely used optimization for small, noncontiguous I/O
//! accesses, will access some extra data regions (holes) required by the
//! applications" (paper §I). For a read over a list of regions, ROMIO
//! issues one large contiguous read per buffer-full that *covers* the
//! regions — holes included — then copies the requested pieces out of the
//! buffer. Fewer, larger file-system requests at the price of extra data
//! movement: exactly the trade the paper's Set 4 sweeps by varying region
//! spacing.

use bps_core::extent::{self, Extent};
use serde::{Deserialize, Serialize};

/// When to apply data sieving.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SieveMode {
    /// Never sieve: each region becomes its own file-system request.
    Disabled,
    /// Always sieve noncontiguous requests (ROMIO's default for reads).
    Enabled,
    /// Sieve only when the waste stays below
    /// [`SievingConfig::auto_waste_limit`].
    Auto,
}

/// Data sieving configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SievingConfig {
    /// Mode selector.
    pub mode: SieveMode,
    /// Maximum covering-read size (ROMIO's `ind_rd_buffer_size`, 4 MB).
    pub buffer_size: u64,
    /// `Auto` threshold: sieve only while `moved / required` stays at or
    /// below this factor.
    pub auto_waste_limit: f64,
}

impl SievingConfig {
    /// ROMIO defaults: sieving enabled, 4 MB buffer.
    pub fn romio_default() -> Self {
        SievingConfig {
            mode: SieveMode::Enabled,
            buffer_size: 4 << 20,
            auto_waste_limit: 16.0,
        }
    }

    /// Sieving switched off.
    pub fn disabled() -> Self {
        SievingConfig {
            mode: SieveMode::Disabled,
            ..Self::romio_default()
        }
    }
}

/// The file-system-request plan for one noncontiguous read.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SievePlan {
    /// Contiguous reads to issue, in ascending offset order.
    pub fs_reads: Vec<Extent>,
    /// Bytes the application asked for.
    pub required: u64,
    /// Bytes the plan actually moves (= required when not sieving).
    pub moved: u64,
    /// Whether sieving was applied.
    pub sieved: bool,
}

/// Build the covering reads for a region list under a buffer limit. Regions
/// must be normalized (sorted, disjoint, non-empty). Also used by the
/// collective planner to sieve within each aggregator's file domain.
pub fn covering_reads(regions: &[Extent], buffer: u64) -> Vec<Extent> {
    let mut reads = Vec::new();
    let mut i = 0;
    // `pos` is the first byte not yet covered by any planned read.
    let mut pos = match regions.first() {
        Some(r) => r.offset,
        None => return reads,
    };
    while i < regions.len() {
        let start = pos.max(regions[i].offset);
        // Saturating is exact: a sum past `u64::MAX` lies beyond every end.
        let limit = start.saturating_add(buffer);
        let mut end = start;
        while i < regions.len() && regions[i].offset < limit {
            if regions[i].end() <= limit {
                end = end.max(regions[i].end());
                i += 1;
            } else {
                // Region straddles the buffer boundary: cover up to the
                // limit now, keep the region for the next window.
                end = limit;
                break;
            }
        }
        reads.push(Extent::new(start, end - start));
        pos = end;
    }
    reads
}

/// Plan a noncontiguous read.
///
/// ```
/// use bps_core::extent::Extent;
/// use bps_middleware::sieving::{plan_read, SievingConfig};
/// // Four 256 B regions with 1 KiB holes: one covering read, holes included.
/// let regions: Vec<Extent> = (0..4).map(|i| Extent::new(i * 1280, 256)).collect();
/// let plan = plan_read(&regions, &SievingConfig::romio_default());
/// assert!(plan.sieved);
/// assert_eq!(plan.fs_reads.len(), 1);
/// assert_eq!(plan.required, 1024);
/// assert!(plan.moved > plan.required);
/// ```
pub fn plan_read(regions: &[Extent], cfg: &SievingConfig) -> SievePlan {
    let normalized = extent::normalize(regions);
    let required = extent::covered_bytes(&normalized);
    // A contiguous (or empty) request has nothing to sieve.
    if normalized.len() > 1 && cfg.mode != SieveMode::Disabled {
        let fs_reads = covering_reads(&normalized, cfg.buffer_size.max(1));
        let moved: u64 = fs_reads.iter().map(|e| e.len).sum();
        // `required` > 0 here: more than one non-empty region.
        let waste = moved as f64 / required as f64;
        if cfg.mode == SieveMode::Enabled || waste <= cfg.auto_waste_limit {
            return SievePlan {
                fs_reads,
                required,
                moved,
                sieved: true,
            };
        }
    }
    // The direct plan is the only one that copies the regions.
    SievePlan {
        fs_reads: normalized.into_owned(),
        required,
        moved: required,
        sieved: false,
    }
}

/// Extract the requested region bytes from the covering-read buffers
/// (content-mode correctness path). `fetch` returns the bytes of one
/// planned read.
pub fn extract<F: FnMut(Extent) -> Vec<u8>>(
    regions: &[Extent],
    plan: &SievePlan,
    mut fetch: F,
) -> Vec<u8> {
    // Materialize each planned read once.
    let buffers: Vec<(Extent, Vec<u8>)> = plan.fs_reads.iter().map(|e| (*e, fetch(*e))).collect();
    let mut out = Vec::with_capacity(plan.required as usize);
    for region in extent::normalize(regions).iter() {
        let mut pos = region.offset;
        while pos < region.end() {
            let (cover, bytes) = buffers
                .iter()
                .find(|(e, _)| e.offset <= pos && pos < e.end())
                .unwrap_or_else(|| panic!("byte {pos} not covered by plan"));
            let n = (cover.end().min(region.end()) - pos) as usize;
            let from = (pos - cover.offset) as usize;
            out.extend_from_slice(&bytes[from..from + n]);
            pos += n as u64;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(mode: SieveMode, buffer: u64) -> SievingConfig {
        SievingConfig {
            mode,
            buffer_size: buffer,
            auto_waste_limit: 16.0,
        }
    }

    fn strided(count: u64, size: u64, spacing: u64) -> Vec<Extent> {
        (0..count)
            .map(|i| Extent::new(i * (size + spacing), size))
            .collect()
    }

    #[test]
    fn disabled_reads_each_region() {
        let regions = strided(4, 256, 1024);
        let plan = plan_read(&regions, &cfg(SieveMode::Disabled, 4 << 20));
        assert!(!plan.sieved);
        assert_eq!(plan.fs_reads.len(), 4);
        assert_eq!(plan.moved, plan.required);
        assert_eq!(plan.required, 1024);
    }

    #[test]
    fn enabled_covers_holes_in_one_read() {
        let regions = strided(4, 256, 1024);
        let plan = plan_read(&regions, &cfg(SieveMode::Enabled, 4 << 20));
        assert!(plan.sieved);
        assert_eq!(plan.fs_reads.len(), 1);
        // Hull: 3*(256+1024) + 256 bytes.
        assert_eq!(plan.moved, 3 * 1280 + 256);
        assert!(plan.moved > plan.required);
    }

    #[test]
    fn buffer_limit_splits_covering_reads() {
        let regions = strided(100, 256, 768); // stride 1 KiB, hull ~100 KiB
        let plan = plan_read(&regions, &cfg(SieveMode::Enabled, 10 * 1024));
        assert!(plan.sieved);
        assert!(plan.fs_reads.len() >= 10, "{}", plan.fs_reads.len());
        for r in &plan.fs_reads {
            assert!(r.len <= 10 * 1024);
        }
        // Reads are disjoint and ascending.
        for w in plan.fs_reads.windows(2) {
            assert!(w[0].end() <= w[1].offset);
        }
        // All regions covered.
        let covered: u64 = plan.fs_reads.iter().map(|e| e.len).sum();
        assert!(covered >= plan.required);
    }

    #[test]
    fn region_straddling_buffer_boundary_is_fully_covered() {
        // One 10-byte region at 0, one 8-byte region at 13 with buffer 16:
        // second region crosses the 16-byte window edge.
        let regions = vec![Extent::new(0, 10), Extent::new(13, 8)];
        let plan = plan_read(&regions, &cfg(SieveMode::Enabled, 16));
        let covered_end = plan.fs_reads.last().unwrap().end();
        assert!(covered_end >= 21);
        // Every region byte is inside some read.
        for r in &regions {
            for b in [r.offset, r.end() - 1] {
                assert!(
                    plan.fs_reads.iter().any(|e| e.offset <= b && b < e.end()),
                    "byte {b} uncovered"
                );
            }
        }
    }

    #[test]
    fn unbounded_buffer_does_not_overflow() {
        // `start + buffer` is past u64::MAX: one read covers the hull.
        let regions = vec![
            Extent::new(1 << 40, 256),
            Extent::new((1 << 40) + 1280, 256),
        ];
        let plan = plan_read(&regions, &cfg(SieveMode::Enabled, u64::MAX));
        assert_eq!(plan.fs_reads, vec![Extent::new(1 << 40, 1536)]);
        let top = vec![
            Extent::new(u64::MAX - 100, 10),
            Extent::new(u64::MAX - 50, 50),
        ];
        assert_eq!(
            covering_reads(&top, 4 << 20),
            vec![Extent::new(u64::MAX - 100, 100)]
        );
    }

    #[test]
    fn auto_rejects_extreme_waste() {
        // 2 tiny regions a megabyte apart: waste factor ~2000x.
        let regions = vec![Extent::new(0, 256), Extent::new(1 << 20, 256)];
        let plan = plan_read(&regions, &cfg(SieveMode::Auto, 4 << 20));
        assert!(!plan.sieved);
        // Dense regions: auto sieves.
        let dense = strided(16, 256, 8);
        let plan = plan_read(&dense, &cfg(SieveMode::Auto, 4 << 20));
        assert!(plan.sieved);
    }

    #[test]
    fn contiguous_or_single_region_never_sieves() {
        let one = vec![Extent::new(100, 4096)];
        let plan = plan_read(&one, &cfg(SieveMode::Enabled, 4 << 20));
        assert!(!plan.sieved);
        assert_eq!(plan.fs_reads, one);
        // Touching regions normalize into one.
        let touching = vec![Extent::new(0, 100), Extent::new(100, 100)];
        let plan = plan_read(&touching, &cfg(SieveMode::Enabled, 4 << 20));
        assert!(!plan.sieved);
        assert_eq!(plan.fs_reads.len(), 1);
    }

    #[test]
    fn empty_region_list() {
        let plan = plan_read(&[], &SievingConfig::romio_default());
        assert!(plan.fs_reads.is_empty());
        assert_eq!(plan.required, 0);
        assert_eq!(plan.moved, 0);
    }

    #[test]
    fn extraction_matches_direct_read() {
        // A synthetic "file": byte at offset i = (i * 7) as u8.
        let file_byte = |i: u64| (i.wrapping_mul(7) % 256) as u8;
        let fetch = |e: Extent| (e.offset..e.end()).map(file_byte).collect::<Vec<u8>>();
        let regions = strided(10, 100, 300);
        for mode in [SieveMode::Disabled, SieveMode::Enabled] {
            let plan = plan_read(&regions, &cfg(mode, 1024));
            let got = extract(&regions, &plan, fetch);
            let want: Vec<u8> = regions
                .iter()
                .flat_map(|r| (r.offset..r.end()).map(file_byte))
                .collect();
            assert_eq!(got, want, "mode {mode:?}");
        }
    }

    #[test]
    fn paper_set4_waste_grows_with_spacing() {
        // Fixed count/size, growing spacing ⇒ fixed `required`, growing
        // `moved` — the exact mechanism behind Figure 12.
        let mut last_moved = 0;
        for spacing in [8u64, 64, 512, 4096] {
            let plan = plan_read(&strided(256, 256, spacing), &SievingConfig::romio_default());
            assert_eq!(plan.required, 256 * 256);
            assert!(plan.moved > last_moved, "spacing {spacing}");
            last_moved = plan.moved;
        }
    }
}
