//! Reference proptests for the middleware planners.
//!
//! The planners take a request as strided runs ([`Regions`]) and never
//! expand a run they can plan by arithmetic: `normalize` checks a run list
//! in O(runs) and borrows it when it is already normalized, `plan_read`
//! and `covering_reads` walk sieve windows run by run, and the two-phase
//! planner clips each run to a file domain as at most three runs. The
//! copying planners over plain extent lists are kept below as references;
//! every plan must equal theirs, applied to the runs' expansion, field by
//! field.

use bps_core::extent::{self, Extent, Regions, Run};
use bps_middleware::collective::{
    plan_collective_read, AggregatorPlan, CollectivePlan, COLLECTIVE_BUFFER,
};
use bps_middleware::sieving::{
    covering_reads, plan_read, SieveMode, SievePlan, SievingConfig, BUFFER_SIZE,
};
use proptest::prelude::*;
use std::borrow::Cow;

mod reference {
    use super::*;

    /// The extent-list `covered_bytes` of a normalized list.
    fn covered_bytes(normalized: &[Extent]) -> u64 {
        normalized.iter().map(|e| e.len).sum()
    }

    /// The extent-list `hull` of a normalized list.
    fn hull(normalized: &[Extent]) -> Option<Extent> {
        let (first, last) = (normalized.first()?, normalized.last()?);
        Some(Extent::new(first.offset, last.end() - first.offset))
    }

    /// The copying `normalize`: an already normalized list is copied,
    /// anything else sorted and merged.
    pub fn normalize(extents: &[Extent]) -> Vec<Extent> {
        let normalized = extents.iter().all(|e| e.len > 0)
            && extents.windows(2).all(|w| w[0].end() < w[1].offset);
        if normalized {
            return extents.to_vec();
        }
        let mut v: Vec<Extent> = extents.iter().copied().filter(|e| e.len > 0).collect();
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
        out
    }

    /// The window walk, adding `start + buffer` unchecked.
    pub fn covering_reads(regions: &[Extent], buffer: u64) -> Vec<Extent> {
        let mut reads = Vec::new();
        let mut i = 0;
        let mut pos = match regions.first() {
            Some(r) => r.offset,
            None => return reads,
        };
        while i < regions.len() {
            let start = pos.max(regions[i].offset);
            let limit = start + buffer;
            let mut end = start;
            while i < regions.len() && regions[i].offset < limit {
                if regions[i].end() <= limit {
                    end = end.max(regions[i].end());
                    i += 1;
                } else {
                    end = limit;
                    break;
                }
            }
            reads.push(Extent::new(start, end - start));
            pos = end;
        }
        reads
    }

    pub fn plan_read(regions: &[Extent], cfg: &SievingConfig) -> SievePlan {
        let normalized = normalize(regions);
        let required = covered_bytes(&normalized);
        let direct = || SievePlan {
            fs_reads: normalized.clone(),
            required,
            moved: required,
            sieved: false,
        };
        if normalized.len() <= 1 {
            return direct();
        }
        if cfg.mode == SieveMode::Disabled {
            return direct();
        }
        let fs_reads = covering_reads(&normalized, BUFFER_SIZE);
        let moved: u64 = fs_reads.iter().map(|e| e.len).sum();
        SievePlan {
            fs_reads,
            required,
            moved,
            sieved: true,
        }
    }

    /// The planner that normalized the concatenation of every request and
    /// walked each process's list a second time for the exchanges.
    pub fn plan_collective_read(
        requests: &[Vec<Extent>],
        aggregator_count: usize,
    ) -> CollectivePlan {
        let nprocs = requests.len();
        let nagg = aggregator_count.clamp(1, nprocs.max(1));
        let owned: Vec<Vec<Extent>> = requests.iter().map(|r| normalize(r)).collect();
        let required: Vec<u64> = owned.iter().map(|o| covered_bytes(o)).collect();
        let all: Vec<Extent> = requests.iter().flatten().copied().collect();
        let wanted = normalize(&all);
        if covered_bytes(&wanted) == 0 {
            return CollectivePlan {
                aggregators: Vec::new(),
                read_bytes: 0,
                exchange_bytes: 0,
                required,
            };
        }
        let hull = hull(&wanted).expect("non-empty");
        let domain = hull.len.div_ceil(nagg as u64).max(1);
        let mut aggregators = Vec::with_capacity(nagg);
        let mut read_bytes = 0;
        let mut exchange_bytes = 0;
        for a in 0..nagg {
            let dom_start = hull.offset + a as u64 * domain;
            let dom_end = (dom_start + domain).min(hull.end());
            if dom_start >= dom_end {
                break;
            }
            let dom = Extent::new(dom_start, dom_end - dom_start);
            let clipped: Vec<Extent> = wanted.iter().filter_map(|e| clip(e, &dom)).collect();
            let reads = covering_reads(&clipped, COLLECTIVE_BUFFER);
            read_bytes += reads.iter().map(|e| e.len).sum::<u64>();
            let mut exchanges = Vec::new();
            for (p, regions) in owned.iter().enumerate() {
                let bytes: u64 = regions
                    .iter()
                    .filter_map(|e| clip(e, &dom))
                    .map(|e| e.len)
                    .sum();
                if bytes > 0 && p != a {
                    exchanges.push((p, bytes));
                    exchange_bytes += bytes;
                }
            }
            aggregators.push(AggregatorPlan {
                aggregator: a,
                reads,
                exchanges,
            });
        }
        CollectivePlan {
            aggregators,
            read_bytes,
            exchange_bytes,
            required,
        }
    }

    fn clip(e: &Extent, dom: &Extent) -> Option<Extent> {
        let start = e.offset.max(dom.offset);
        let end = e.end().min(dom.end());
        (start < end).then(|| Extent::new(start, end - start))
    }
}

/// HPIO's shape: `count` equally spaced regions block-partitioned over the
/// processes, so each list continues where the previous one stopped (and
/// touches it when the spacing is zero).
fn chained() -> impl Strategy<Value = Vec<Vec<Extent>>> {
    // Figure 12's spacings, and spacings wide enough that a domain
    // spans several collective buffers.
    let spacing = prop_oneof![0u64..4096, 0u64..70_000];
    (1usize..6, 0u64..300, 1u64..512, spacing, 0u64..1 << 40).prop_map(
        |(nprocs, count, size, spacing, base)| {
            let n = nprocs as u64;
            (0..n)
                .map(|p| {
                    let first = p * (count / n) + p.min(count % n);
                    let mine = count / n + u64::from(p < count % n);
                    (first..first + mine)
                        .map(|i| Extent::new(base + i * (size + spacing), size))
                        .collect()
                })
                .collect()
        },
    )
}

/// Block `b` of process `p` sits at `b * nprocs + p`: the lists interleave.
fn interleaved() -> impl Strategy<Value = Vec<Vec<Extent>>> {
    (1usize..6, 0u64..60, 1u64..200_000, 0u64..1 << 40).prop_map(|(nprocs, blocks, size, base)| {
        let n = nprocs as u64;
        (0..n)
            .map(|p| {
                (0..blocks)
                    .map(|b| Extent::new(base + (b * n + p) * size, size))
                    .collect()
            })
            .collect()
    })
}

/// Unordered lists with overlapping, touching and empty extents, and
/// empty lists.
fn scattered() -> impl Strategy<Value = Vec<Vec<Extent>>> {
    let list = proptest::collection::vec((0u64..12_000_000, 0u64..3_000_000), 0..30)
        .prop_map(|v| v.into_iter().map(|(o, l)| Extent::new(o, l)).collect());
    proptest::collection::vec(list, 0..6)
}

fn requests() -> impl Strategy<Value = Vec<Vec<Extent>>> {
    prop_oneof![chained(), interleaved(), scattered()]
}

/// Every region of a run list, in order.
fn expand(runs: &[Run]) -> Vec<Extent> {
    extent::expand(runs).collect()
}

/// Extent lists as run lists of one region per run.
fn as_regions(reqs: &[Vec<Extent>]) -> Vec<Regions> {
    reqs.iter().map(|r| Regions::from(r.clone())).collect()
}

/// A buffer from 1 byte up to one past the hull of `regions`, so windows
/// straddle regions as often as they swallow them.
fn buffer_for(regions: &[Extent], pick: u64) -> u64 {
    let hull = reference::normalize(regions)
        .first()
        .zip(reference::normalize(regions).last())
        .map_or(0, |(a, b)| b.end() - a.offset);
    1 + pick % (hull + 1)
}

/// One run whose stride is below, at or above its length, with empty
/// regions and runs of zero or one region mixed in. Holes reach 70 000
/// bytes, so a domain can span several collective buffers.
fn run() -> impl Strategy<Value = Run> {
    let len = prop_oneof![Just(0u64), 1u64..600, 1u64..600, 1u64..600];
    let count = prop_oneof![Just(0u64), Just(1u64), 2u64..300, 2u64..300];
    (0u64..1 << 20, len, 0u8..3, 0u64..70_000, count).prop_map(|(offset, len, shape, d, count)| {
        let stride = match shape {
            0 => d % len.max(1),
            1 => len,
            _ => len + 1 + d,
        };
        Run {
            offset,
            len,
            stride,
            count,
        }
    })
}

/// Up to five processes, each listing up to four runs in any order: runs
/// overlap, touch and interleave.
fn free_runs() -> impl Strategy<Value = Vec<Regions>> {
    let list = proptest::collection::vec(run(), 0..5).prop_map(Regions::from);
    proptest::collection::vec(list, 0..6)
}

/// HPIO's shape as runs: `count` equally spaced regions block-partitioned
/// over the processes, each process's share cut into calls of `per_call`
/// regions, one run per call. Consecutive runs and processes continue
/// where the previous one stopped (and touch it when the spacing is zero).
fn chained_runs() -> impl Strategy<Value = Vec<Regions>> {
    let spacing = prop_oneof![0u64..4096, 0u64..70_000];
    (
        1usize..6,
        0u64..3000,
        1u64..512,
        spacing,
        1u64..700,
        0u64..1 << 40,
    )
        .prop_map(|(nprocs, count, size, spacing, per_call, base)| {
            let n = nprocs as u64;
            let stride = size + spacing;
            (0..n)
                .map(|p| {
                    let first = p * (count / n) + p.min(count % n);
                    let mine = count / n + u64::from(p < count % n);
                    let runs: Vec<Run> = (0..mine.div_ceil(per_call))
                        .map(|c| Run {
                            offset: base + (first + c * per_call) * stride,
                            len: size,
                            stride,
                            count: per_call.min(mine - c * per_call),
                        })
                        .collect();
                    Regions::from(runs)
                })
                .collect()
        })
}

/// Process `p` owns blocks `p, p + n, p + 2n, ...`: one run each, the runs
/// interleaved region by region.
fn interleaved_runs() -> impl Strategy<Value = Vec<Regions>> {
    (1usize..6, 0u64..400, 1u64..200_000, 0u64..1 << 40).prop_map(|(nprocs, blocks, size, base)| {
        let n = nprocs as u64;
        (0..n)
            .map(|p| Regions::strided(base + p * size, size, n * size, blocks))
            .collect()
    })
}

/// Every shape of run list, placed where it was generated or moved up
/// against `u64::MAX`. The move leaves twice the hull and a collective
/// buffer of room above it, so the references' unchecked window and
/// domain arithmetic stays inside `u64` too.
fn run_requests() -> impl Strategy<Value = Vec<Regions>> {
    let shapes = prop_oneof![
        free_runs(),
        chained_runs(),
        interleaved_runs(),
        requests().prop_map(|reqs| as_regions(&reqs)),
    ];
    (shapes, any::<bool>()).prop_map(|(reqs, top)| {
        if !top {
            return reqs;
        }
        let end = reqs
            .iter()
            .flat_map(|r| r.iter())
            .map(|r| if r.count > 0 { r.end() } else { r.offset })
            .max()
            .unwrap_or(0);
        let shift = u64::MAX - 2 * end - 2 * COLLECTIVE_BUFFER;
        reqs.iter()
            .map(|r| {
                let runs: Vec<Run> = r
                    .iter()
                    .map(|run| Run {
                        offset: run.offset + shift,
                        ..*run
                    })
                    .collect();
                Regions::from(runs)
            })
            .collect()
    })
}

fn mode() -> impl Strategy<Value = SieveMode> {
    prop_oneof![Just(SieveMode::Disabled), Just(SieveMode::Enabled)]
}

proptest! {
    #[test]
    fn normalize_matches_reference_and_borrows_normalized_input(reqs in requests()) {
        let all: Vec<Extent> = reqs.iter().flatten().copied().collect();
        for list in reqs.iter().chain([&all]) {
            let runs = Regions::from(list.clone());
            let n = extent::normalize(&runs);
            prop_assert_eq!(expand(&n), reference::normalize(list));
            let again = extent::normalize(&n);
            prop_assert!(matches!(again, Cow::Borrowed(b) if b.as_ptr() == n.as_ptr()));
        }
    }

    #[test]
    fn plan_read_matches_reference(reqs in requests(), mode in mode()) {
        for list in &reqs {
            let cfg = SievingConfig { mode };
            let runs = Regions::from(list.clone());
            prop_assert_eq!(plan_read(&runs, &cfg), reference::plan_read(list, &cfg));
        }
    }

    #[test]
    fn collective_plan_matches_reference(reqs in requests(), aggs in 0usize..16) {
        let nagg = aggs % (reqs.len() + 3);
        prop_assert_eq!(
            plan_collective_read(&as_regions(&reqs), nagg),
            reference::plan_collective_read(&reqs, nagg)
        );
    }

    /// A run list normalizes to the reference's cover of its expansion,
    /// per process and concatenated, and the result comes back borrowed.
    #[test]
    fn run_normalize_matches_reference(reqs in run_requests()) {
        let all: Vec<Run> = reqs.iter().flat_map(|r| r.iter().copied()).collect();
        for runs in reqs.iter().map(|r| &r[..]).chain([&all[..]]) {
            let n = extent::normalize(runs);
            prop_assert_eq!(expand(&n), reference::normalize(&expand(runs)));
            prop_assert_eq!(extent::covered_bytes(&n), reference::normalize(&expand(runs)).iter().map(|e| e.len).sum::<u64>());
            let again = extent::normalize(&n);
            prop_assert!(matches!(again, Cow::Borrowed(b) if b.as_ptr() == n.as_ptr()));
        }
    }

    /// Window arithmetic over normalized runs equals the region walk over
    /// their expansion, for buffers from 1 byte to one past the hull.
    #[test]
    fn run_covering_reads_match_reference(reqs in run_requests(), pick in any::<u64>()) {
        for regions in &reqs {
            let n = extent::normalize(regions);
            let expanded = expand(&n);
            let buffer = buffer_for(&expanded, pick);
            prop_assert_eq!(
                covering_reads(&n, buffer),
                reference::covering_reads(&expanded, buffer)
            );
        }
    }

    #[test]
    fn run_plan_read_matches_reference(reqs in run_requests(), mode in mode()) {
        for regions in &reqs {
            let list = expand(regions);
            let cfg = SievingConfig { mode };
            prop_assert_eq!(plan_read(regions, &cfg), reference::plan_read(&list, &cfg));
        }
    }

    /// Two-phase plans from runs, for 0 to `nprocs + 2` aggregators.
    #[test]
    fn run_collective_plan_matches_reference(reqs in run_requests(), aggs in 0usize..16) {
        let nagg = aggs % (reqs.len() + 3);
        let lists: Vec<Vec<Extent>> = reqs.iter().map(|r| expand(r)).collect();
        prop_assert_eq!(
            plan_collective_read(&reqs, nagg),
            reference::plan_collective_read(&lists, nagg)
        );
    }
}

/// HPIO's block partition is ordered end to end, so the collective
/// planner's domain pieces arrive normalized and are never copied to be
/// sorted; the plan still equals the reference's.
#[test]
fn block_partition_pieces_come_in_order() {
    let reqs: Vec<Regions> = (0..4u64)
        .map(|p| Regions::strided(p * 4096 * 1280, 256, 1280, 4096))
        .collect();
    let all: Vec<Run> = reqs.iter().flat_map(|r| r.iter().copied()).collect();
    assert!(matches!(extent::normalize(&all), Cow::Borrowed(_)));
    let lists: Vec<Vec<Extent>> = reqs.iter().map(|r| expand(r)).collect();
    for nagg in [1, 2, 3, 4] {
        assert_eq!(
            plan_collective_read(&reqs, nagg),
            reference::plan_collective_read(&lists, nagg)
        );
    }
}
