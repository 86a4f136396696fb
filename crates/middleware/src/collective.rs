//! Two-phase collective I/O planning.
//!
//! An extension beyond the paper's evaluation (its §I discusses middleware
//! optimizations generally): in two-phase collective I/O, the union of all
//! processes' requests is split into contiguous *file domains*, one per
//! aggregator process; aggregators read their domain contiguously, then
//! redistribute pieces to the requesting processes over the network. This
//! module plans the phases; the ablation example executes the plan against
//! the simulated stack.

use crate::sieving::covering_reads;
use bps_core::extent::{self, Extent};

/// One aggregator's assignment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AggregatorPlan {
    /// The aggregator's process index (into the participating group).
    pub aggregator: usize,
    /// Contiguous reads the aggregator performs: its file domain's wanted
    /// bytes covered data-sieving style (small intra-domain holes are read
    /// through, large gaps are skipped, reads capped at the ROMIO 4 MB
    /// collective buffer).
    pub reads: Vec<Extent>,
    /// Bytes the aggregator must ship to each process: `(process, bytes)`.
    pub exchanges: Vec<(usize, u64)>,
}

/// The full two-phase plan.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CollectivePlan {
    /// Per-aggregator work.
    pub aggregators: Vec<AggregatorPlan>,
    /// Total bytes read from the file system.
    pub read_bytes: u64,
    /// Total bytes exchanged between processes.
    pub exchange_bytes: u64,
    /// Bytes each process requested (its regions' union), indexed like
    /// the `requests` the plan was made from.
    pub required: Vec<u64>,
}

/// The ROMIO collective buffer size (`cb_buffer_size`).
pub const COLLECTIVE_BUFFER: u64 = 4 << 20;

/// Plan a collective read: `requests[p]` is the region list of process `p`;
/// the first `aggregator_count` processes act as aggregators.
pub fn plan_collective_read(requests: &[Vec<Extent>], aggregator_count: usize) -> CollectivePlan {
    let nprocs = requests.len();
    let nagg = aggregator_count.clamp(1, nprocs.max(1));
    // Each process's wanted bytes, normalized once for every domain.
    let owned: Vec<_> = requests.iter().map(|r| extent::normalize(r)).collect();
    let required: Vec<u64> = owned.iter().map(|o| extent::covered_bytes(o)).collect();
    // The hull of the merged wanted bytes, from each list's first and last
    // extents; no wanted bytes at all means nothing to plan.
    let start = owned
        .iter()
        .filter_map(|o| o.first())
        .map(|e| e.offset)
        .min();
    let end = owned.iter().filter_map(|o| o.last()).map(|e| e.end()).max();
    let hull = match (start, end) {
        (Some(start), Some(end)) => Extent::new(start, end - start),
        _ => {
            return CollectivePlan {
                aggregators: Vec::new(),
                read_bytes: 0,
                exchange_bytes: 0,
                required,
            }
        }
    };
    // Split the hull into equal file domains.
    let domain = hull.len.div_ceil(nagg as u64).max(1);
    let mut aggregators = Vec::with_capacity(nagg);
    let mut read_bytes = 0;
    let mut exchange_bytes = 0;
    // Every process's pieces of the current domain, reused across domains.
    let mut pieces: Vec<Extent> = Vec::new();
    for a in 0..nagg {
        let dom_start = hull.offset + a as u64 * domain;
        let dom_end = (dom_start + domain).min(hull.end());
        if dom_start >= dom_end {
            break;
        }
        let dom = Extent::new(dom_start, dom_end - dom_start);
        // Gather each process's request inside the domain. Its bytes are
        // the exchange volume, except the aggregator's own (delivered
        // locally).
        pieces.clear();
        let mut exchanges = Vec::new();
        for (p, regions) in owned.iter().enumerate() {
            let from = pieces.len();
            pieces.extend(clip_all(regions, &dom));
            let bytes: u64 = pieces[from..].iter().map(|e| e.len).sum();
            if bytes > 0 && p != a {
                exchanges.push((p, bytes));
                exchange_bytes += bytes;
            }
        }
        // Cover the domain's wanted bytes with large sieve-style reads
        // (this is what makes two-phase I/O win: the aggregator turns
        // everyone's fine-grained pieces into a few big contiguous
        // requests). Clipping commutes with union and `normalize` returns
        // the one canonical cover of a byte set, so this equals the merged
        // wanted set clipped to the domain. It borrows when the pieces
        // already come in order, as a block partition's do.
        let reads = covering_reads(&extent::normalize(&pieces), COLLECTIVE_BUFFER);
        read_bytes += reads.iter().map(|e| e.len).sum::<u64>();
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

/// The pieces of a normalized list inside `dom`. Binary search skips the
/// extents that end before the domain, and the walk stops at the first
/// one starting past it: both would clip to nothing.
fn clip_all<'a>(normalized: &'a [Extent], dom: &'a Extent) -> impl Iterator<Item = Extent> + 'a {
    let first = normalized.partition_point(|e| e.end() <= dom.offset);
    normalized[first..]
        .iter()
        .take_while(|e| e.offset < dom.end())
        .filter_map(|e| clip(e, dom))
}

fn clip(e: &Extent, dom: &Extent) -> Option<Extent> {
    let start = e.offset.max(dom.offset);
    let end = e.end().min(dom.end());
    if start < end {
        Some(Extent::new(start, end - start))
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Interleaved per-process strided requests, the classic two-phase win.
    fn interleaved(nprocs: usize, blocks: u64, block_size: u64) -> Vec<Vec<Extent>> {
        (0..nprocs)
            .map(|p| {
                (0..blocks)
                    .map(|b| Extent::new((b * nprocs as u64 + p as u64) * block_size, block_size))
                    .collect()
            })
            .collect()
    }

    #[test]
    fn interleaved_requests_become_contiguous_domains() {
        let reqs = interleaved(4, 8, 1024);
        let plan = plan_collective_read(&reqs, 4);
        // Fully dense file: each aggregator reads one contiguous domain.
        assert_eq!(plan.aggregators.len(), 4);
        for a in &plan.aggregators {
            assert_eq!(a.reads.len(), 1, "aggregator {}", a.aggregator);
        }
        // All 32 KB read exactly once.
        assert_eq!(plan.read_bytes, 4 * 8 * 1024);
        assert_eq!(plan.required, vec![8 * 1024; 4]);
    }

    #[test]
    fn exchange_excludes_aggregator_own_data() {
        let reqs = interleaved(4, 8, 1024);
        let plan = plan_collective_read(&reqs, 4);
        // Each process owns 1/4 of each domain; 3/4 of each domain is
        // shipped out.
        assert_eq!(plan.exchange_bytes, 4 * 8 * 1024 * 3 / 4);
        for a in &plan.aggregators {
            assert!(a.exchanges.iter().all(|&(p, _)| p != a.aggregator));
        }
    }

    #[test]
    fn read_bytes_cover_wanted_plus_small_holes() {
        // Sparse requests: the covering reads include intra-domain holes
        // (sieving semantics), bounded by the hull.
        let reqs = vec![
            vec![Extent::new(0, 100), Extent::new(10_000, 100)],
            vec![Extent::new(5_000, 100)],
        ];
        let plan = plan_collective_read(&reqs, 2);
        assert!(plan.read_bytes >= 300);
        assert!(plan.read_bytes <= 10_100);
        // Every wanted byte is covered by some read.
        for b in [0u64, 99, 5_000, 5_099, 10_000, 10_099] {
            let covered = plan
                .aggregators
                .iter()
                .flat_map(|a| &a.reads)
                .any(|e| e.offset <= b && b < e.end());
            assert!(covered, "byte {b} uncovered");
        }
    }

    #[test]
    fn dense_interleaved_domains_are_few_big_reads() {
        // 4 procs x 64 interleaved 4 KB blocks: each domain becomes one
        // contiguous covering read, not hundreds of fragments.
        let reqs = interleaved(4, 64, 4096);
        let plan = plan_collective_read(&reqs, 4);
        for a in &plan.aggregators {
            assert!(
                a.reads.len() <= 2,
                "aggregator {} has {} reads",
                a.aggregator,
                a.reads.len()
            );
        }
    }

    #[test]
    fn single_aggregator_reads_everything() {
        let reqs = interleaved(3, 4, 512);
        let plan = plan_collective_read(&reqs, 1);
        assert_eq!(plan.aggregators.len(), 1);
        assert_eq!(plan.read_bytes, 3 * 4 * 512);
        // Aggregator 0 ships everyone else's data.
        assert_eq!(plan.exchange_bytes, 3 * 4 * 512 * 2 / 3);
    }

    #[test]
    fn empty_requests_plan_nothing() {
        let plan = plan_collective_read(&[vec![], vec![]], 2);
        assert_eq!(plan.read_bytes, 0);
        assert!(plan.aggregators.is_empty());
    }

    #[test]
    fn overlapping_requests_not_double_read() {
        // Two processes want the same bytes: read once, shipped once.
        let reqs = vec![vec![Extent::new(0, 1000)], vec![Extent::new(0, 1000)]];
        let plan = plan_collective_read(&reqs, 1);
        assert_eq!(plan.read_bytes, 1000);
        assert_eq!(plan.exchange_bytes, 1000); // to the non-aggregator only
    }
}
