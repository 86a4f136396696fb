//! Block arithmetic.
//!
//! The paper defines BPS in units of I/O *blocks* "because I/O systems
//! usually read/write data from/to a block device", using the canonical
//! 512-byte block. `B` in equation (1) is the number of blocks *required by
//! the application*, so partial blocks round up: a 1-byte request still
//! costs one block of data movement at the device.

/// Canonical block size used by the BPS metric (bytes).
pub const BLOCK_SIZE: u64 = 512;

/// Number of `BLOCK_SIZE` blocks needed to hold `bytes` bytes (ceiling
/// division). Zero bytes is zero blocks.
///
/// ```
/// use bps_core::block::{blocks_for_bytes, BLOCK_SIZE};
/// assert_eq!(blocks_for_bytes(0), 0);
/// assert_eq!(blocks_for_bytes(1), 1);
/// assert_eq!(blocks_for_bytes(BLOCK_SIZE), 1);
/// assert_eq!(blocks_for_bytes(BLOCK_SIZE + 1), 2);
/// ```
pub const fn blocks_for_bytes(bytes: u64) -> u64 {
    bytes.div_ceil(BLOCK_SIZE)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ceiling_division() {
        assert_eq!(blocks_for_bytes(0), 0);
        assert_eq!(blocks_for_bytes(511), 1);
        assert_eq!(blocks_for_bytes(512), 1);
        assert_eq!(blocks_for_bytes(513), 2);
        assert_eq!(blocks_for_bytes(1 << 20), 2048);
    }

    #[test]
    fn roundtrip_whole_blocks() {
        for b in [0u64, 1, 7, 1024] {
            assert_eq!(blocks_for_bytes(b * BLOCK_SIZE), b);
        }
    }
}
