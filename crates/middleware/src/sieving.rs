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

use bps_core::extent::{self, Extent, Run};
use serde::{Deserialize, Serialize};

/// Maximum covering-read size: ROMIO's `ind_rd_buffer_size`, 4 MB.
pub const BUFFER_SIZE: u64 = 4 << 20;

/// When to apply data sieving.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SieveMode {
    /// Never sieve: each region becomes its own file-system request.
    Disabled,
    /// Always sieve noncontiguous requests (ROMIO's default for reads).
    Enabled,
}

/// Data sieving configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SievingConfig {
    /// Mode selector.
    pub mode: SieveMode,
}

impl SievingConfig {
    /// ROMIO defaults: sieving enabled, [`BUFFER_SIZE`] covering reads.
    pub fn romio_default() -> Self {
        SievingConfig {
            mode: SieveMode::Enabled,
        }
    }

    /// Sieving switched off.
    pub fn disabled() -> Self {
        SievingConfig {
            mode: SieveMode::Disabled,
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

/// Build the covering reads for a run list under a buffer limit. The runs
/// must be normalized ([`extent::normalize`]). Each window finds the last
/// whole region of a run that fits it by arithmetic, so the cost is
/// O(reads + runs), not O(regions). Also used by the collective planner
/// to sieve within each aggregator's file domain.
pub fn covering_reads(runs: &[Run], buffer: u64) -> Vec<Extent> {
    let mut reads = Vec::new();
    // The next region not yet wholly covered is region `i` of run `k`.
    let (mut k, mut i) = (0, 0);
    // `pos` is the first byte not yet covered by any planned read.
    let mut pos = match runs.first() {
        Some(r) => r.offset,
        None => return reads,
    };
    while k < runs.len() {
        let start = pos.max(runs[k].region(i).offset);
        // Saturating is exact: a sum past `u64::MAX` lies beyond every end.
        let limit = start.saturating_add(buffer);
        let mut end = start;
        while k < runs.len() {
            let run = &runs[k];
            let region = run.region(i);
            if region.offset >= limit {
                break;
            }
            if region.end() > limit {
                // Region straddles the buffer boundary: cover up to the
                // limit now, keep the region for the next window.
                end = limit;
                break;
            }
            // The run's last region ending inside the window; the one
            // after it starts past the window or straddles its boundary.
            let last = match run.count {
                1 => 0,
                _ => ((limit - run.offset - run.len) / run.stride).min(run.count - 1),
            };
            end = run.region(last).end();
            if last + 1 < run.count {
                i = last + 1;
            } else {
                (k, i) = (k + 1, 0);
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
/// use bps_core::extent::Regions;
/// use bps_middleware::sieving::{plan_read, SievingConfig};
/// // Four 256 B regions with 1 KiB holes: one covering read, holes included.
/// let regions = Regions::strided(0, 256, 1280, 4);
/// let plan = plan_read(&regions, &SievingConfig::romio_default());
/// assert!(plan.sieved);
/// assert_eq!(plan.fs_reads.len(), 1);
/// assert_eq!(plan.required, 1024);
/// assert!(plan.moved > plan.required);
/// ```
pub fn plan_read(regions: &[Run], cfg: &SievingConfig) -> SievePlan {
    let normalized = extent::normalize(regions);
    let required = extent::covered_bytes(&normalized);
    // A contiguous (or empty) request has nothing to sieve.
    let several = normalized.len() > 1 || normalized.first().is_some_and(|r| r.count > 1);
    if several && cfg.mode == SieveMode::Enabled {
        let fs_reads = covering_reads(&normalized, BUFFER_SIZE);
        let moved = fs_reads.iter().map(|e| e.len).sum();
        return SievePlan {
            fs_reads,
            required,
            moved,
            sieved: true,
        };
    }
    // The direct plan reads each region on its own: one file-system
    // request per region, so only it expands the runs.
    SievePlan {
        fs_reads: extent::expand(&normalized).collect(),
        required,
        moved: required,
        sieved: false,
    }
}

/// Extract the requested region bytes from the covering-read buffers
/// (content-mode correctness path). `fetch` returns the bytes of one
/// planned read.
pub fn extract<F: FnMut(Extent) -> Vec<u8>>(
    regions: &[Run],
    plan: &SievePlan,
    mut fetch: F,
) -> Vec<u8> {
    // Materialize each planned read once.
    let buffers: Vec<(Extent, Vec<u8>)> = plan.fs_reads.iter().map(|e| (*e, fetch(*e))).collect();
    let mut out = Vec::with_capacity(plan.required as usize);
    for region in extent::expand(&extent::normalize(regions)) {
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
    use bps_core::extent::Regions;

    fn cfg(mode: SieveMode) -> SievingConfig {
        SievingConfig { mode }
    }

    fn strided(count: u64, size: u64, spacing: u64) -> Regions {
        Regions::strided(0, size, size + spacing, count)
    }

    #[test]
    fn disabled_reads_each_region() {
        let regions = strided(4, 256, 1024);
        let plan = plan_read(&regions, &cfg(SieveMode::Disabled));
        assert!(!plan.sieved);
        assert_eq!(plan.fs_reads.len(), 4);
        assert_eq!(plan.moved, plan.required);
        assert_eq!(plan.required, 1024);
    }

    #[test]
    fn enabled_covers_holes_in_one_read() {
        let regions = strided(4, 256, 1024);
        let plan = plan_read(&regions, &cfg(SieveMode::Enabled));
        assert!(plan.sieved);
        assert_eq!(plan.fs_reads.len(), 1);
        // Hull: 3*(256+1024) + 256 bytes.
        assert_eq!(plan.moved, 3 * 1280 + 256);
        assert!(plan.moved > plan.required);
    }

    #[test]
    fn buffer_limit_splits_covering_reads() {
        let regions = strided(100, 256, 768); // stride 1 KiB, hull ~100 KiB
        let reads = covering_reads(&regions, 10 * 1024);
        assert!(reads.len() >= 10, "{}", reads.len());
        for r in &reads {
            assert!(r.len <= 10 * 1024);
        }
        // Reads are disjoint and ascending.
        for w in reads.windows(2) {
            assert!(w[0].end() <= w[1].offset);
        }
        // All regions covered.
        let covered: u64 = reads.iter().map(|e| e.len).sum();
        assert!(covered >= 100 * 256);
    }

    #[test]
    fn region_straddling_buffer_boundary_is_fully_covered() {
        // One 10-byte region at 0, one 8-byte region at 13 with buffer 16:
        // second region crosses the 16-byte window edge.
        let regions = Regions::from(vec![Extent::new(0, 10), Extent::new(13, 8)]);
        let reads = covering_reads(&regions, 16);
        let covered_end = reads.last().unwrap().end();
        assert!(covered_end >= 21);
        // Every region byte is inside some read.
        for r in extent::expand(&regions) {
            for b in [r.offset, r.end() - 1] {
                assert!(
                    reads.iter().any(|e| e.offset <= b && b < e.end()),
                    "byte {b} uncovered"
                );
            }
        }
    }

    #[test]
    fn unbounded_buffer_does_not_overflow() {
        // `start + buffer` is past u64::MAX: one read covers the hull.
        let regions = Regions::strided(1 << 40, 256, 1280, 2);
        assert_eq!(
            covering_reads(&regions, u64::MAX),
            vec![Extent::new(1 << 40, 1536)]
        );
        let top = Regions::from(vec![
            Extent::new(u64::MAX - 100, 10),
            Extent::new(u64::MAX - 50, 50),
        ]);
        assert_eq!(
            covering_reads(&top, 4 << 20),
            vec![Extent::new(u64::MAX - 100, 100)]
        );
        // A strided run ending 90 bytes below the top, under a limit that
        // saturates, and under one that cuts it in two.
        let top = Regions::strided(u64::MAX - 1000, 10, 100, 10);
        assert_eq!(
            covering_reads(&top, u64::MAX),
            vec![Extent::new(u64::MAX - 1000, 910)]
        );
        assert_eq!(
            covering_reads(&top, 500),
            vec![
                Extent::new(u64::MAX - 1000, 410),
                Extent::new(u64::MAX - 500, 410)
            ]
        );
    }

    #[test]
    fn contiguous_or_single_region_never_sieves() {
        let one = vec![Extent::new(100, 4096)];
        let plan = plan_read(&Regions::from(one.clone()), &cfg(SieveMode::Enabled));
        assert!(!plan.sieved);
        assert_eq!(plan.fs_reads, one);
        // Touching regions normalize into one.
        let touching = Regions::from(vec![Extent::new(0, 100), Extent::new(100, 100)]);
        let plan = plan_read(&touching, &cfg(SieveMode::Enabled));
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
            let plan = plan_read(&regions, &cfg(mode));
            let got = extract(&regions, &plan, fetch);
            let want: Vec<u8> = extent::expand(&regions)
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

    #[test]
    fn strided_call_of_a_billion_regions_sieves_without_expanding() {
        // 2^30 regions of 256 B, 1 KiB apart: 4 MiB windows hold 4096
        // regions each, so the plan is 2^18 covering reads. Expanding the
        // regions would take 16 GiB; the runs take arithmetic.
        let count = 1u64 << 30;
        let regions = strided(count, 256, 768);
        let plan = plan_read(&regions, &SievingConfig::romio_default());
        assert!(plan.sieved);
        assert_eq!(plan.required, count * 256);
        assert_eq!(plan.fs_reads.len(), 1 << 18);
        // Each window ends on its last whole region: 4095 strides + 256.
        assert_eq!(plan.fs_reads[0], Extent::new(0, 4095 * 1024 + 256));
        assert_eq!(plan.fs_reads[1].offset, 4096 * 1024);
        assert_eq!(plan.moved, (1 << 18) * (4095 * 1024 + 256));
    }
}
