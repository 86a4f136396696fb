//! Engine-driven collective I/O: barrier semantics, trace correctness, and
//! the two-phase win over independent sieved reads on interleaved patterns.

use bps::core::extent::Extent;
use bps::core::metrics::{Bps, Metric};
use bps::core::record::{FileId, Layer};
use bps::core::time::Dur;
use bps::fs::cluster::{Cluster, ClusterConfig};
use bps::fs::layout::StripeLayout;
use bps::fs::pfs::ParallelFs;
use bps::middleware::process::run_workload;
use bps::middleware::stack::{FsBackend, IoStack};
use bps::sim::device::{DeviceNode, DiskSched};
use bps::sim::rng::Jitter;
use bps::workloads::spec::{AppOp, OpStream, Workload};

/// The canonical two-phase motivator: process `p` owns blocks
/// `p, p+n, p+2n, ...` of a shared file — everyone's independent request
/// is noncontiguous, the union is perfectly contiguous.
struct Interleaved {
    procs: usize,
    blocks_per_proc: u64,
    block: u64,
    collective: bool,
}

impl Workload for Interleaved {
    fn name(&self) -> &'static str {
        "interleaved"
    }
    fn processes(&self) -> usize {
        self.procs
    }
    fn file_sizes(&self) -> Vec<u64> {
        vec![self.procs as u64 * self.blocks_per_proc * self.block]
    }
    fn stream(&self, pid: usize) -> OpStream {
        let regions: Vec<Extent> = (0..self.blocks_per_proc)
            .map(|b| {
                Extent::new(
                    (b * self.procs as u64 + pid as u64) * self.block,
                    self.block,
                )
            })
            .collect();
        let regions = regions.into();
        let op = if self.collective {
            AppOp::CollectiveReadNoncontig { file: 0, regions }
        } else {
            AppOp::ReadNoncontig { file: 0, regions }
        };
        Box::new(std::iter::once(op))
    }
}

fn run(w: &Interleaved, seed: u64) -> bps::core::trace::Trace {
    let cluster = Cluster::new(&ClusterConfig {
        servers: 4,
        clients: w.processes(),
        device: DeviceNode::Hdd,
        sched: DiskSched::Fifo,
        server_cpu: Dur::from_micros(25),
        jitter: Jitter::NONE,
        seed,
        record_net_layer: false,
        fault: bps::sim::fault::FaultPlan::none(),
    });
    let mut pfs = ParallelFs::new(4);
    let files: Vec<FileId> = w
        .file_sizes()
        .iter()
        .map(|&s| pfs.create(s, StripeLayout::default_over(4)))
        .collect();
    let stack = IoStack::new(cluster, FsBackend::Parallel(pfs));
    let (trace, _) = run_workload(stack, w, &files, Dur::from_micros(5));
    trace
}

fn workload(procs: usize, collective: bool) -> Interleaved {
    Interleaved {
        procs,
        blocks_per_proc: 512,
        block: 16 << 10, // 32 MiB shared file at 4 procs
        collective,
    }
}

#[test]
fn collective_run_completes_and_records_all_processes() {
    let w = workload(4, true);
    let trace = run(&w, 1);
    // One app record per collective call per process.
    let pids: std::collections::BTreeSet<_> =
        trace.layer(Layer::Application).map(|r| r.pid).collect();
    assert_eq!(pids.len(), 4);
    assert_eq!(trace.bytes(Layer::Application), w.required_bytes());
    assert!(Bps.compute(&trace).unwrap() > 0.0);
    // Collective reads the union once; independent sieving drags the other
    // processes' blocks along as holes for every process (~4x the volume).
    let per_proc_sieve = run(&workload(4, false), 1);
    assert!(
        trace.bytes(Layer::FileSystem) * 3 < per_proc_sieve.bytes(Layer::FileSystem),
        "collective moved {} vs independent {}",
        trace.bytes(Layer::FileSystem),
        per_proc_sieve.bytes(Layer::FileSystem)
    );
}

#[test]
fn collective_beats_independent_on_interleaved_pattern() {
    let coll = run(&workload(4, true), 2);
    let indep = run(&workload(4, false), 2);
    assert!(
        coll.execution_time() < indep.execution_time(),
        "collective {} vs independent {}",
        coll.execution_time(),
        indep.execution_time()
    );
    // BPS agrees with the execution times (same required bytes).
    assert!(Bps.compute(&coll).unwrap() > Bps.compute(&indep).unwrap());
}

#[test]
fn collective_is_deterministic() {
    let a = run(&workload(3, true), 7);
    let b = run(&workload(3, true), 7);
    assert_eq!(a.records(), b.records());
}

#[test]
fn single_process_collective_degenerates_gracefully() {
    let w = workload(1, true);
    let trace = run(&w, 3);
    assert_eq!(trace.bytes(Layer::Application), w.required_bytes());
}
