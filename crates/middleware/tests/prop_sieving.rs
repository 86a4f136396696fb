//! Property tests for data sieving: coverage, disjointness, extraction
//! correctness, and the waste accounting behind Figure 12.

use bps_core::extent::{self, Extent, Regions};
use bps_middleware::sieving::{covering_reads, extract, plan_read, SieveMode, SievingConfig};
use proptest::prelude::*;

fn regions() -> impl Strategy<Value = Regions> {
    proptest::collection::vec((0u64..1_000_000, 1u64..10_000), 0..40).prop_map(|v| {
        v.into_iter()
            .map(|(o, l)| Extent::new(o, l))
            .collect::<Vec<_>>()
            .into()
    })
}

fn config() -> impl Strategy<Value = SievingConfig> {
    prop_oneof![Just(SieveMode::Disabled), Just(SieveMode::Enabled)]
        .prop_map(|mode| SievingConfig { mode })
}

proptest! {
    /// Every requested byte is covered by exactly one planned read, and the
    /// planned reads are disjoint and ascending.
    #[test]
    fn plan_covers_regions(rs in regions(), cfg in config()) {
        let plan = plan_read(&rs, &cfg);
        // Reads ascending & disjoint.
        for w in plan.fs_reads.windows(2) {
            prop_assert!(w[0].end() <= w[1].offset);
        }
        // Coverage: every region byte inside some read. Check region
        // endpoints and one midpoint (reads are contiguous ranges).
        let covered = |b: u64| plan.fs_reads.iter().any(|e| e.offset <= b && b < e.end());
        for r in extent::expand(&extent::normalize(&rs)) {
            prop_assert!(covered(r.offset), "first byte of {r:?}");
            prop_assert!(covered(r.end() - 1), "last byte of {r:?}");
            prop_assert!(covered(r.offset + r.len / 2));
        }
        // Accounting.
        let moved: u64 = plan.fs_reads.iter().map(|e| e.len).sum();
        prop_assert_eq!(moved, plan.moved);
        prop_assert_eq!(plan.required, extent::covered_bytes(&extent::normalize(&rs)));
        prop_assert!(plan.moved >= plan.required);
        if !plan.sieved {
            prop_assert_eq!(plan.moved, plan.required);
        }
    }

    /// Covering reads respect the buffer limit, stay ascending and
    /// disjoint, and cover every requested byte.
    #[test]
    fn buffer_limit_respected(rs in regions(), buffer in 1u64..50_000) {
        let reads = covering_reads(&extent::normalize(&rs), buffer);
        for r in &reads {
            prop_assert!(r.len <= buffer, "{} > {buffer}", r.len);
        }
        for w in reads.windows(2) {
            prop_assert!(w[0].end() <= w[1].offset);
        }
        let covered = |b: u64| reads.iter().any(|e| e.offset <= b && b < e.end());
        for r in extent::expand(&extent::normalize(&rs)) {
            prop_assert!(covered(r.offset), "first byte of {r:?}");
            prop_assert!(covered(r.end() - 1), "last byte of {r:?}");
        }
    }

    /// Extraction through the plan returns byte-identical data to reading
    /// each region directly, for any plan mode.
    #[test]
    fn extraction_correct(rs in regions(), cfg in config()) {
        let file_byte = |i: u64| (i.wrapping_mul(31).wrapping_add(7) % 256) as u8;
        let plan = plan_read(&rs, &cfg);
        let got = extract(&rs, &plan, |e| (e.offset..e.end()).map(file_byte).collect());
        let want: Vec<u8> = extent::expand(&extent::normalize(&rs))
            .flat_map(|r| (r.offset..r.end()).map(file_byte))
            .collect();
        prop_assert_eq!(got, want);
    }

    /// Sieving never issues more file-system reads than the disabled plan.
    #[test]
    fn sieving_reduces_op_count(rs in regions()) {
        let enabled = plan_read(&rs, &SievingConfig::romio_default());
        let disabled = plan_read(&rs, &SievingConfig::disabled());
        prop_assert!(enabled.fs_reads.len() <= disabled.fs_reads.len());
    }
}
