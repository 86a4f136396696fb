//! Stripe layout: how file bytes map onto I/O servers.
//!
//! PVFS2 distributes a file round-robin in fixed-size stripe units across a
//! list of I/O servers (default stripe size 64 KB). A file's layout is an
//! attribute set at creation time — which is how the paper's §IV.C.3
//! experiment pins each process's file onto its own single server.

use serde::{Deserialize, Serialize};

/// The default PVFS2 stripe unit.
pub const DEFAULT_STRIPE_SIZE: u64 = 64 * 1024;

/// One contiguous piece of a request, as served by one server.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Chunk {
    /// Actual cluster server index (an element of the layout's server list).
    pub server: usize,
    /// Position within the layout's server list (indexes per-slot extents).
    pub slot: usize,
    /// Byte offset inside that server's portion of the file.
    pub server_offset: u64,
    /// Byte offset inside the whole file.
    pub file_offset: u64,
    /// Length in bytes.
    pub len: u64,
}

/// A round-robin stripe layout over an explicit list of servers.
///
/// ```
/// use bps_fs::layout::StripeLayout;
/// // 64 KB stripes over 4 servers: a 256 KB read touches each server once.
/// let layout = StripeLayout::default_over(4);
/// let mut chunks = Vec::new();
/// layout.map_into(0, 256 << 10, &mut chunks);
/// assert_eq!(chunks.len(), 4);
/// assert_eq!(chunks.iter().map(|c| c.len).sum::<u64>(), 256 << 10);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct StripeLayout {
    /// Stripe unit in bytes.
    pub stripe_size: u64,
    /// The I/O servers holding this file, in round-robin order. Cluster
    /// server indices; duplicates are not meaningful.
    pub servers: Vec<usize>,
}

impl StripeLayout {
    /// Round-robin over `servers` with the given stripe size.
    pub fn new(stripe_size: u64, servers: Vec<usize>) -> Self {
        assert!(stripe_size > 0, "stripe size must be positive");
        assert!(!servers.is_empty(), "layout needs at least one server");
        StripeLayout {
            stripe_size,
            servers,
        }
    }

    /// The PVFS2 default: 64 KB stripes over servers `0..n`.
    pub fn default_over(n: usize) -> Self {
        StripeLayout::new(DEFAULT_STRIPE_SIZE, (0..n).collect())
    }

    /// The paper's §IV.C.3 pinning: the whole file on one server.
    pub fn pinned(server: usize) -> Self {
        StripeLayout::new(DEFAULT_STRIPE_SIZE, vec![server])
    }

    /// Number of servers in the layout.
    pub fn width(&self) -> usize {
        self.servers.len()
    }

    /// Map the byte extent `[offset, offset+len)` onto per-server chunks
    /// in `chunks`, in ascending file-offset order. Adjacent stripe units
    /// that land on the same server (the single-server case) are
    /// coalesced. `chunks` is cleared first, so a caller can reuse one
    /// buffer across requests.
    pub fn map_into(&self, offset: u64, len: u64, chunks: &mut Vec<Chunk>) {
        chunks.clear();
        let n = self.servers.len() as u64;
        let mut pos = offset;
        let end = offset + len;
        while pos < end {
            let stripe_idx = pos / self.stripe_size;
            let within = pos % self.stripe_size;
            let piece = (self.stripe_size - within).min(end - pos);
            let server_slot = (stripe_idx % n) as usize;
            // How many complete passes over the server list precede this
            // stripe: that many stripe units already sit on this server.
            let passes = stripe_idx / n;
            let server_offset = passes * self.stripe_size + within;
            let server = self.servers[server_slot];
            match chunks.last_mut() {
                Some(last)
                    if last.server == server
                        && last.server_offset + last.len == server_offset
                        && last.file_offset + last.len == pos =>
                {
                    last.len += piece;
                }
                _ => chunks.push(Chunk {
                    server,
                    slot: server_slot,
                    server_offset,
                    file_offset: pos,
                    len: piece,
                }),
            }
            pos += piece;
        }
    }

    /// Total bytes of the file that live on layout slot `slot` for a file
    /// of `file_size` bytes (used to size per-server extents at creation).
    pub fn server_share(&self, slot: usize, file_size: u64) -> u64 {
        let n = self.servers.len() as u64;
        let full_stripes = file_size / self.stripe_size;
        let tail = file_size % self.stripe_size;
        let full_passes = full_stripes / n;
        let extra = full_stripes % n;
        let slot64 = slot as u64;
        let mut share = full_passes * self.stripe_size;
        if slot64 < extra {
            share += self.stripe_size;
        } else if slot64 == extra {
            share += tail;
        }
        share
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn map(l: &StripeLayout, offset: u64, len: u64) -> Vec<Chunk> {
        let mut chunks = Vec::new();
        l.map_into(offset, len, &mut chunks);
        chunks
    }

    #[test]
    fn chunks_partition_request_exactly() {
        let l = StripeLayout::new(100, vec![0, 1, 2]);
        let chunks = map(&l, 37, 1000);
        // Lengths sum; file offsets are contiguous ascending.
        let total: u64 = chunks.iter().map(|c| c.len).sum();
        assert_eq!(total, 1000);
        let mut pos = 37;
        for c in &chunks {
            assert_eq!(c.file_offset, pos);
            assert!(c.len > 0);
            pos += c.len;
        }
        assert_eq!(pos, 1037);
    }

    #[test]
    fn round_robin_assignment() {
        let l = StripeLayout::new(10, vec![5, 7]);
        let chunks = map(&l, 0, 40);
        let servers: Vec<usize> = chunks.iter().map(|c| c.server).collect();
        assert_eq!(servers, vec![5, 7, 5, 7]);
        // Server offsets advance per pass.
        assert_eq!(chunks[0].server_offset, 0);
        assert_eq!(chunks[2].server_offset, 10);
    }

    #[test]
    fn single_server_coalesces() {
        let l = StripeLayout::pinned(3);
        let chunks = map(&l, 0, 10 * DEFAULT_STRIPE_SIZE);
        assert_eq!(chunks.len(), 1);
        assert_eq!(chunks[0].server, 3);
        assert_eq!(chunks[0].len, 10 * DEFAULT_STRIPE_SIZE);
        assert_eq!(chunks[0].server_offset, 0);
    }

    #[test]
    fn unaligned_start_and_end() {
        let l = StripeLayout::new(100, vec![0, 1]);
        let chunks = map(&l, 150, 100);
        // [150,200) on server 1 (stripe 1), [200,250) on server 0 (stripe 2).
        assert_eq!(chunks.len(), 2);
        assert_eq!(
            chunks[0],
            Chunk {
                server: 1,
                slot: 1,
                server_offset: 50,
                file_offset: 150,
                len: 50
            }
        );
        assert_eq!(
            chunks[1],
            Chunk {
                server: 0,
                slot: 0,
                server_offset: 100,
                file_offset: 200,
                len: 50
            }
        );
    }

    #[test]
    fn empty_request_maps_to_nothing() {
        let l = StripeLayout::default_over(4);
        assert!(map(&l, 123, 0).is_empty());
    }

    #[test]
    fn server_share_sums_to_file_size() {
        let l = StripeLayout::new(100, vec![0, 1, 2]);
        for size in [0u64, 1, 99, 100, 250, 299, 300, 301, 1000] {
            let total: u64 = (0..3).map(|s| l.server_share(s, size)).sum();
            assert_eq!(total, size, "size {size}");
        }
    }

    #[test]
    fn server_share_matches_map() {
        let l = StripeLayout::new(64, vec![0, 1, 2, 3]);
        let size = 1000;
        let chunks = map(&l, 0, size);
        for slot in 0..4 {
            let mapped: u64 = chunks
                .iter()
                .filter(|c| c.server == l.servers[slot])
                .map(|c| c.len)
                .sum();
            assert_eq!(mapped, l.server_share(slot, size), "slot {slot}");
        }
    }

    #[test]
    fn default_over_uses_pvfs_stripe() {
        let l = StripeLayout::default_over(8);
        assert_eq!(l.stripe_size, 64 * 1024);
        assert_eq!(l.width(), 8);
    }

    #[test]
    #[should_panic(expected = "at least one server")]
    fn empty_server_list_rejected() {
        let _ = StripeLayout::new(64, vec![]);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_stripe_rejected() {
        let _ = StripeLayout::new(0, vec![0]);
    }
}
