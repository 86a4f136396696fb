//! Byte extents within a file.
//!
//! Noncontiguous I/O (the paper's Set 4, driven by HPIO through MPI-IO data
//! sieving) is described as a list of file regions. An [`Extent`] is one
//! such region; a [`Run`] is a strided vector of equal regions, and
//! [`Regions`] is one request's run list. The helpers here normalize run
//! lists and compute the bytes the regions cover, in time linear in the
//! runs, not the regions.

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
}

/// One strided run of regions, an MPI vector: `count` regions of `len`
/// bytes whose starts lie `stride` apart, the first at `offset`. Every
/// region ends at or below `u64::MAX`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Run {
    /// First byte of the first region.
    pub offset: u64,
    /// Bytes per region.
    pub len: u64,
    /// Distance between region starts (ignored for a single region).
    pub stride: u64,
    /// Number of regions.
    pub count: u64,
}

impl Run {
    /// A run of the one region `e`.
    pub const fn one(e: Extent) -> Run {
        Run {
            offset: e.offset,
            len: e.len,
            stride: 0,
            count: 1,
        }
    }

    /// Region `i` of the run.
    pub const fn region(&self, i: u64) -> Extent {
        Extent::new(self.offset + i * self.stride, self.len)
    }

    /// One past the last byte of the last region of a non-empty run.
    pub const fn end(&self) -> u64 {
        self.region(self.count - 1).end()
    }
}

/// The regions of one noncontiguous request as strided runs, in the order
/// the application lists them. A datatype such as HPIO's is one run; an
/// arbitrary region list is a run of one per region. Dereferences to the
/// run slice the planners take.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Regions(Vec<Run>);

impl Regions {
    /// `count` regions of `len` bytes, `stride` apart from `offset`.
    pub fn strided(offset: u64, len: u64, stride: u64, count: u64) -> Self {
        Regions(vec![Run {
            offset,
            len,
            stride,
            count,
        }])
    }

    /// Offset of the first region, 0 when there is none.
    pub fn first_offset(&self) -> u64 {
        self.0.iter().find(|r| r.count > 0).map_or(0, |r| r.offset)
    }
}

impl From<Vec<Extent>> for Regions {
    fn from(extents: Vec<Extent>) -> Self {
        Regions(extents.into_iter().map(Run::one).collect())
    }
}

impl From<Vec<Run>> for Regions {
    fn from(runs: Vec<Run>) -> Self {
        Regions(runs)
    }
}

impl std::ops::Deref for Regions {
    type Target = [Run];

    fn deref(&self) -> &[Run] {
        &self.0
    }
}

/// The minimal disjoint ascending cover of the runs' bytes, as runs: no
/// run is empty, a run of several regions has holes between them
/// (`stride > len`), and a hole separates each run from the next.
///
/// A run list in that shape already, as HPIO's strided calls are, is
/// checked in O(runs) and comes back borrowed. A run whose regions touch
/// or overlap collapses to its one covering extent; if the list is still
/// not normalized, it is expanded, sorted and merged into runs of one, so
/// arbitrary region lists keep their sort-and-merge cover.
pub fn normalize(runs: &[Run]) -> Cow<'_, [Run]> {
    if is_normalized(runs) {
        return Cow::Borrowed(runs);
    }
    let collapsed: Vec<Run> = runs
        .iter()
        .filter(|r| r.count > 0 && r.len > 0)
        .map(|r| {
            if r.count > 1 && r.stride <= r.len {
                Run::one(Extent::new(r.offset, r.end() - r.offset))
            } else {
                *r
            }
        })
        .collect();
    if is_normalized(&collapsed) {
        return Cow::Owned(collapsed);
    }
    let mut v: Vec<Extent> = expand(&collapsed).collect();
    // A stable sort merges the ascending runs that concatenated
    // per-process lists consist of; equal keys are equal extents, so the
    // order is the one an unstable sort would give.
    v.sort();
    let mut out: Vec<Run> = Vec::with_capacity(v.len());
    for e in v {
        match out.last_mut() {
            Some(last) if e.offset <= last.end() => {
                let end = last.end().max(e.end());
                last.len = end - last.offset;
            }
            _ => out.push(Run::one(e)),
        }
    }
    Cow::Owned(out)
}

/// True when `runs` is already in [`normalize`]'s output shape.
fn is_normalized(runs: &[Run]) -> bool {
    runs.iter()
        .all(|r| r.count > 0 && r.len > 0 && (r.count == 1 || r.stride > r.len))
        && runs.windows(2).all(|w| w[0].end() < w[1].offset)
}

/// Every region of a run list, in order: the list as the extents an
/// MPI datatype describes.
pub fn expand(runs: &[Run]) -> impl Iterator<Item = Extent> + '_ {
    runs.iter()
        .flat_map(|r| (0..r.count).map(move |i| r.region(i)))
}

/// Total bytes covered by a *normalized* run list. For any other list,
/// the bytes its regions hold, an overlap counted once per region.
pub fn covered_bytes(normalized: &[Run]) -> u64 {
    normalized.iter().map(|r| r.count * r.len).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn e(offset: u64, len: u64) -> Extent {
        Extent::new(offset, len)
    }

    fn run(offset: u64, len: u64, stride: u64, count: u64) -> Run {
        Run {
            offset,
            len,
            stride,
            count,
        }
    }

    /// The normalized cover of a region list, expanded back to extents.
    fn norm(extents: &[Extent]) -> Vec<Extent> {
        listed(&normalize(&Regions::from(extents.to_vec())))
    }

    fn listed(runs: &[Run]) -> Vec<Extent> {
        expand(runs).collect()
    }

    #[test]
    fn normalize_merges_and_sorts() {
        let input = [e(10, 5), e(0, 5), e(14, 6), e(30, 0)];
        assert_eq!(norm(&input), vec![e(0, 5), e(10, 10)]);
        let n = normalize(&Regions::from(input.to_vec())).into_owned();
        assert_eq!(covered_bytes(&n), 15);
    }

    #[test]
    fn touching_extents_merge() {
        let input = [e(0, 5), e(5, 5)];
        assert_eq!(norm(&input), vec![e(0, 10)]);
    }

    #[test]
    fn hull_and_holes() {
        let input = Regions::from(vec![e(0, 4), e(10, 4), e(20, 4)]);
        let n = normalize(&input);
        // The 24-byte hull holds the regions plus the two 6-byte holes
        // between them.
        assert_eq!(n.last().unwrap().end() - n[0].offset, 24);
        assert_eq!(covered_bytes(&n) + 2 * 6, 24);
        // The same three regions as one strided run.
        let strided = Regions::strided(0, 4, 10, 3);
        assert_eq!(covered_bytes(&normalize(&strided)), 12);
    }

    #[test]
    fn empty_inputs() {
        assert!(normalize(&[]).is_empty());
        assert_eq!(covered_bytes(&[]), 0);
        assert!(normalize(&Regions::strided(7, 256, 300, 0)).is_empty());
        assert!(normalize(&Regions::strided(7, 0, 300, 9)).is_empty());
        assert_eq!(Regions::default().first_offset(), 0);
    }

    #[test]
    fn ends_of_extents_and_runs() {
        assert_eq!(e(3, 4).end(), 7);
        assert_eq!(run(3, 4, 10, 3).end(), 27);
        assert_eq!(run(3, 4, 99, 1).end(), 7);
    }

    /// The sort-and-merge `normalize` ran on every input before the
    /// already-normalized shortcut.
    fn reference(extents: &[Extent]) -> Vec<Extent> {
        let mut v: Vec<Extent> = extents.iter().copied().filter(|e| e.len > 0).collect();
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
            let mut runs = Vec::new();
            for _ in 0..1 + next(4) {
                // An ascending run, sometimes touching, overlapping or empty.
                let mut pos = next(64);
                for _ in 0..next(12) {
                    let len = next(9);
                    v.push(e(pos, len));
                    pos += len + next(6);
                }
                // A strided run: holes, touching, overlapping or repeated.
                runs.push(run(next(200), next(9), next(12), next(6)));
            }
            let list = Regions::from(v.clone());
            let n = normalize(&list);
            assert_eq!(listed(&n), reference(&v), "{v:?}");
            assert!(is_normalized(&n));
            // A normalized list comes back borrowed, not copied.
            assert!(matches!(normalize(&n), Cow::Borrowed(b) if b.as_ptr() == n.as_ptr()));
            let n = normalize(&runs);
            assert_eq!(listed(&n), reference(&listed(&runs)), "{runs:?}");
            assert!(is_normalized(&n));
        }
        assert!(is_normalized(&[]));
        assert!(!is_normalized(&[Run::one(e(0, 0))]));
        assert!(!is_normalized(&[Run::one(e(0, 5)), Run::one(e(5, 5))]));
        assert!(is_normalized(&[Run::one(e(0, 5)), Run::one(e(6, 5))]));
        assert!(is_normalized(&[run(0, 5, 6, 4), Run::one(e(24, 1))]));
        assert!(!is_normalized(&[run(0, 5, 6, 4), Run::one(e(23, 1))]));
        assert!(!is_normalized(&[run(0, 5, 5, 2)]));
        assert!(!is_normalized(&[run(0, 5, 6, 0)]));
    }

    #[test]
    fn nested_extents_normalize() {
        let input = [e(0, 100), e(10, 5), e(50, 200)];
        assert_eq!(norm(&input), vec![e(0, 250)]);
    }

    #[test]
    fn touching_and_overlapping_runs_collapse_to_one_extent() {
        for stride in [0, 3, 8] {
            let n = listed(&normalize(&Regions::strided(100, 8, stride, 4)));
            assert_eq!(n, vec![e(100, 3 * stride + 8)], "stride {stride}");
        }
        // A run ending at the top of the address space.
        let top = Regions::strided(u64::MAX - 40, 10, 10, 4);
        assert_eq!(listed(&normalize(&top)), vec![e(u64::MAX - 40, 40)]);
    }
}
