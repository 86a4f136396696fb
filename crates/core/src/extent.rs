//! Byte extents within a file.
//!
//! Noncontiguous I/O (the paper's Set 4, driven by HPIO through MPI-IO data
//! sieving) is described as a list of file regions. An [`Extent`] is one
//! such region; the helpers here normalize region lists and compute the
//! quantities data sieving cares about: the covering hull and the hole
//! bytes between regions.

use serde::{Deserialize, Serialize};
use std::borrow::Cow;

/// A byte range `[offset, offset + len)` within a file.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct Extent {
    /// First byte.
    pub offset: u64,
    /// Length in bytes.
    pub len: u64,
}

impl Extent {
    /// Construct an extent.
    pub const fn new(offset: u64, len: u64) -> Self {
        Extent { offset, len }
    }

    /// One past the last byte.
    pub const fn end(&self) -> u64 {
        self.offset + self.len
    }

    /// True for zero-length extents.
    pub const fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// True when `self` fully contains `other`.
    pub fn contains(&self, other: &Extent) -> bool {
        self.offset <= other.offset && other.end() <= self.end()
    }

    /// The smallest extent covering both.
    pub fn hull(&self, other: &Extent) -> Extent {
        let offset = self.offset.min(other.offset);
        let end = self.end().max(other.end());
        Extent {
            offset,
            len: end - offset,
        }
    }
}

/// Sort extents by offset and merge overlapping or touching neighbours,
/// dropping empty ones. The result is a minimal disjoint ascending cover of
/// the same bytes.
///
/// Region lists usually arrive ascending and disjoint already (HPIO's
/// strided regions, an earlier normalize's output). One linear check then
/// stands in for the sort and merge, which would change nothing, and the
/// input comes back borrowed; only a list that needs work is copied.
pub fn normalize(extents: &[Extent]) -> Cow<'_, [Extent]> {
    if is_normalized(extents) {
        return Cow::Borrowed(extents);
    }
    let mut v: Vec<Extent> = extents.iter().copied().filter(|e| !e.is_empty()).collect();
    // A stable sort merges the ascending runs that concatenated
    // per-process lists consist of; equal keys are equal extents, so the
    // order is the one an unstable sort would give.
    v.sort();
    let mut out: Vec<Extent> = Vec::with_capacity(v.len());
    for e in v {
        match out.last_mut() {
            Some(last) if e.offset <= last.end() => {
                let end = last.end().max(e.end());
                last.len = end - last.offset;
            }
            _ => out.push(e),
        }
    }
    Cow::Owned(out)
}

/// True when `extents` is already what [`normalize`] returns for it:
/// non-empty extents in ascending order with a gap between neighbours.
fn is_normalized(extents: &[Extent]) -> bool {
    extents.iter().all(|e| !e.is_empty()) && extents.windows(2).all(|w| w[0].end() < w[1].offset)
}

/// Total bytes covered by a *normalized* extent list.
pub fn covered_bytes(normalized: &[Extent]) -> u64 {
    normalized.iter().map(|e| e.len).sum()
}

/// The covering hull of a non-empty normalized list.
pub fn hull(normalized: &[Extent]) -> Option<Extent> {
    match (normalized.first(), normalized.last()) {
        (Some(a), Some(b)) => Some(a.hull(b)),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn e(offset: u64, len: u64) -> Extent {
        Extent::new(offset, len)
    }

    #[test]
    fn normalize_merges_and_sorts() {
        let input = [e(10, 5), e(0, 5), e(14, 6), e(30, 0)];
        let n = normalize(&input);
        assert_eq!(n, vec![e(0, 5), e(10, 10)]);
        assert_eq!(covered_bytes(&n), 15);
    }

    #[test]
    fn touching_extents_merge() {
        let input = [e(0, 5), e(5, 5)];
        assert_eq!(normalize(&input), vec![e(0, 10)]);
    }

    #[test]
    fn hull_and_holes() {
        let input = [e(0, 4), e(10, 4), e(20, 4)];
        let n = normalize(&input);
        assert_eq!(hull(&n), Some(e(0, 24)));
        // The hull covers the regions plus the two 6-byte holes between them.
        assert_eq!(covered_bytes(&n) + 2 * 6, hull(&n).unwrap().len);
    }

    #[test]
    fn empty_inputs() {
        assert!(normalize(&[]).is_empty());
        assert_eq!(hull(&[]), None);
        assert_eq!(covered_bytes(&[]), 0);
    }

    #[test]
    fn contains_and_end() {
        assert!(e(0, 10).contains(&e(2, 3)));
        assert!(!e(0, 10).contains(&e(8, 5)));
        assert!(e(0, 10).contains(&e(0, 10)));
        assert_eq!(e(3, 4).end(), 7);
    }

    /// The sort-and-merge `normalize` ran on every input before the
    /// already-normalized shortcut.
    fn reference(extents: &[Extent]) -> Vec<Extent> {
        let mut v: Vec<Extent> = extents.iter().copied().filter(|e| !e.is_empty()).collect();
        v.sort_unstable_by_key(|e| (e.offset, e.len));
        let mut out: Vec<Extent> = Vec::new();
        for e in v {
            match out.last_mut() {
                Some(last) if e.offset <= last.end() => {
                    last.len = last.end().max(e.end()) - last.offset;
                }
                _ => out.push(e),
            }
        }
        out
    }

    #[test]
    fn shortcut_and_run_merging_match_the_reference() {
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move |m: u64| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x % m
        };
        for _ in 0..2_000 {
            let mut v = Vec::new();
            for _ in 0..1 + next(4) {
                // An ascending run, sometimes touching, overlapping or empty.
                let mut pos = next(64);
                for _ in 0..next(12) {
                    let len = next(9);
                    v.push(e(pos, len));
                    pos += len + next(6);
                }
            }
            let n = normalize(&v);
            assert_eq!(n, reference(&v), "{v:?}");
            assert!(is_normalized(&n));
            // A normalized list comes back borrowed, not copied.
            assert!(matches!(normalize(&n), Cow::Borrowed(b) if b.as_ptr() == n.as_ptr()));
        }
        assert!(is_normalized(&[]));
        assert!(!is_normalized(&[e(0, 0)]));
        assert!(!is_normalized(&[e(0, 5), e(5, 5)]));
        assert!(is_normalized(&[e(0, 5), e(6, 5)]));
    }

    #[test]
    fn nested_extents_normalize() {
        let input = [e(0, 100), e(10, 5), e(50, 200)];
        assert_eq!(normalize(&input), vec![e(0, 250)]);
    }
}
