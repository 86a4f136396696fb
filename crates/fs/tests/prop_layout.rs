//! Property tests: stripe mapping is an exact partition, and a reused
//! mapping buffer is invisible.

use bps_fs::layout::StripeLayout;
use proptest::prelude::*;

fn layout() -> impl Strategy<Value = StripeLayout> {
    (1u64..300_000, 1usize..9).prop_map(|(stripe, n)| StripeLayout::new(stripe, (0..n).collect()))
}

proptest! {
    /// Chunks cover the requested byte range exactly: contiguous ascending
    /// file offsets, lengths summing to the request, nothing beyond.
    #[test]
    fn map_partitions_exactly(l in layout(), offset in 0u64..10_000_000, len in 0u64..5_000_000) {
        let chunks = l.map(offset, len);
        let mut pos = offset;
        for c in &chunks {
            prop_assert_eq!(c.file_offset, pos);
            prop_assert!(c.len > 0);
            prop_assert!(c.slot < l.width());
            prop_assert_eq!(c.server, l.servers[c.slot]);
            pos += c.len;
        }
        prop_assert_eq!(pos, offset + len);
    }

    /// No chunk crosses a stripe boundary unless it was coalesced on the
    /// same server with contiguous server offsets.
    #[test]
    fn chunk_server_offsets_consistent(l in layout(), offset in 0u64..1_000_000, len in 1u64..1_000_000) {
        let chunks = l.map(offset, len);
        // Per server, server offsets are strictly increasing and disjoint.
        for slot in 0..l.width() {
            let mut last_end: Option<u64> = None;
            for c in chunks.iter().filter(|c| c.slot == slot) {
                if let Some(e) = last_end {
                    prop_assert!(c.server_offset >= e);
                }
                last_end = Some(c.server_offset + c.len);
            }
        }
    }

    /// server_share sums to the file size and matches the full-file map.
    #[test]
    fn shares_match_map(l in layout(), size in 0u64..2_000_000) {
        let total: u64 = (0..l.width()).map(|s| l.server_share(s, size)).sum();
        prop_assert_eq!(total, size);
        let chunks = l.map(0, size);
        for slot in 0..l.width() {
            let mapped: u64 = chunks.iter().filter(|c| c.slot == slot).map(|c| c.len).sum();
            prop_assert_eq!(mapped, l.server_share(slot, size), "slot {}", slot);
        }
    }

    /// Two maps of adjacent ranges tile the same chunks as one map of the
    /// union range (after splitting at the join).
    #[test]
    fn adjacent_maps_tile(l in layout(), offset in 0u64..500_000, a in 1u64..300_000, b in 1u64..300_000) {
        let combined: u64 = l.map(offset, a + b).iter().map(|c| c.len).sum();
        let first: u64 = l.map(offset, a).iter().map(|c| c.len).sum();
        let second: u64 = l.map(offset + a, b).iter().map(|c| c.len).sum();
        prop_assert_eq!(combined, first + second);
    }

    /// `map_into` a buffer left dirty by earlier maps, over this layout or
    /// another, gives exactly what `map` gives.
    #[test]
    fn map_into_dirty_buffer_matches_map(
        l in layout(),
        other in layout(),
        earlier in proptest::collection::vec((0u64..2_000_000, 0u64..2_000_000), 0..4),
        offset in 0u64..2_000_000,
        len in 0u64..2_000_000,
    ) {
        let mut buf = Vec::new();
        for (i, &(o, n)) in earlier.iter().enumerate() {
            let prior = if i % 2 == 0 { &l } else { &other };
            prior.map_into(o, n, &mut buf);
        }
        l.map_into(offset, len, &mut buf);
        prop_assert_eq!(buf, l.map(offset, len));
    }
}
