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
use bps_core::extent::{self, Extent, Regions, Run};

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
/// the first `aggregator_count` processes act as aggregators. Domains are
/// cut from the runs by arithmetic, so a strided request costs O(runs) per
/// domain, not O(regions).
pub fn plan_collective_read(requests: &[Regions], aggregator_count: usize) -> CollectivePlan {
    let nprocs = requests.len();
    let nagg = aggregator_count.clamp(1, nprocs.max(1));
    // Each process's wanted bytes, normalized once for every domain.
    let owned: Vec<_> = requests.iter().map(|r| extent::normalize(r)).collect();
    let required: Vec<u64> = owned.iter().map(|o| extent::covered_bytes(o)).collect();
    // The hull of the merged wanted bytes, from each list's first and last
    // runs; no wanted bytes at all means nothing to plan.
    let start = owned
        .iter()
        .filter_map(|o| o.first())
        .map(|r| r.offset)
        .min();
    let end = owned.iter().filter_map(|o| o.last()).map(|r| r.end()).max();
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
    let mut pieces: Vec<Run> = Vec::new();
    for a in 0..nagg {
        // Saturating is exact: a domain start past `u64::MAX` lies beyond
        // the hull, and the loop stops there.
        let dom_start = hull.offset.saturating_add(a as u64 * domain);
        let dom_end = dom_start.saturating_add(domain).min(hull.end());
        if dom_start >= dom_end {
            break;
        }
        let dom = Extent::new(dom_start, dom_end - dom_start);
        // Gather each process's request inside the domain. Its bytes are
        // the exchange volume, except the aggregator's own (delivered
        // locally).
        pieces.clear();
        let mut exchanges = Vec::new();
        for (p, runs) in owned.iter().enumerate() {
            let from = pieces.len();
            clip_all(runs, &dom, &mut pieces);
            let bytes = extent::covered_bytes(&pieces[from..]);
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

/// Append the pieces of a normalized run list inside `dom` to `out`.
/// Binary search skips the runs that end before the domain, and the walk
/// stops at the first one starting past it: both would clip to nothing.
fn clip_all(normalized: &[Run], dom: &Extent, out: &mut Vec<Run>) {
    let first = normalized.partition_point(|r| r.end() <= dom.offset);
    for run in normalized[first..]
        .iter()
        .take_while(|r| r.offset < dom.end())
    {
        clip(run, dom, out);
    }
}

/// Append the part of `run` inside `dom`, which it overlaps: at most a
/// cut head region, the whole regions in between as one run, and a cut
/// tail region.
fn clip(run: &Run, dom: &Extent, out: &mut Vec<Run>) {
    // Regions `lo..hi` end past the domain's start and begin before its
    // end. A run of several regions has `stride > len > 0`.
    let (mut lo, mut hi) = (0, 1);
    if run.count > 1 {
        if let Some(before) = dom.offset.checked_sub(run.offset + run.len) {
            lo = before / run.stride + 1;
        }
        hi = ((dom.end() - 1 - run.offset) / run.stride + 1).min(run.count);
    }
    let cut = |e: Extent| {
        let start = e.offset.max(dom.offset);
        Run::one(Extent::new(start, e.end().min(dom.end()) - start))
    };
    if lo >= hi {
        // The domain lies in a hole between two regions.
        return;
    }
    let head = run.region(lo);
    if head.offset < dom.offset || head.end() > dom.end() {
        out.push(cut(head));
        lo += 1;
    }
    let tail = run.region(hi - 1);
    let tail_cut = lo < hi && tail.end() > dom.end();
    if tail_cut {
        hi -= 1;
    }
    if lo < hi {
        out.push(Run {
            offset: run.region(lo).offset,
            count: hi - lo,
            ..*run
        });
    }
    if tail_cut {
        out.push(cut(tail));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Interleaved per-process strided requests, the classic two-phase win.
    fn interleaved(nprocs: usize, blocks: u64, block_size: u64) -> Vec<Regions> {
        let n = nprocs as u64;
        (0..n)
            .map(|p| Regions::strided(p * block_size, block_size, n * block_size, blocks))
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
        let reqs: Vec<Regions> = vec![
            vec![Extent::new(0, 100), Extent::new(10_000, 100)].into(),
            vec![Extent::new(5_000, 100)].into(),
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
        let plan = plan_collective_read(&[Regions::default(), Regions::default()], 2);
        assert_eq!(plan.read_bytes, 0);
        assert!(plan.aggregators.is_empty());
    }

    #[test]
    fn domains_at_the_top_of_the_address_space() {
        // Eight aggregators over a 10-byte hull ending at `u64::MAX`:
        // five 2-byte domains, and the sixth would start past the top.
        let top = u64::MAX - 10;
        let reqs = vec![Regions::strided(top, 10, 0, 1); 8];
        let plan = plan_collective_read(&reqs, 8);
        assert_eq!(plan.aggregators.len(), 5);
        assert_eq!(plan.read_bytes, 10);
        assert_eq!(plan.aggregators[4].reads, vec![Extent::new(top + 8, 2)]);
    }

    #[test]
    fn overlapping_requests_not_double_read() {
        // Two processes want the same bytes: read once, shipped once.
        let reqs = vec![Regions::strided(0, 1000, 0, 1); 2];
        let plan = plan_collective_read(&reqs, 1);
        assert_eq!(plan.read_bytes, 1000);
        assert_eq!(plan.exchange_bytes, 1000); // to the non-aggregator only
    }
}
