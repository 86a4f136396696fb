//! Two-phase collective I/O (extension beyond the paper's evaluation):
//! run the classic interleaved access pattern through the engine twice —
//! once as independent sieved reads, once as a collective with barrier
//! semantics — and let BPS rank the two designs, the way the paper's
//! conclusion proposes evaluating optimizations.
//!
//! ```text
//! cargo run --release --example collective_io
//! ```

use bps::core::extent::Extent;
use bps::core::metrics::{Bps, Metric};
use bps::core::record::{FileId, Layer};
use bps::core::time::Dur;
use bps::fs::cluster::{Cluster, ClusterConfig};
use bps::fs::layout::StripeLayout;
use bps::fs::pfs::ParallelFs;
use bps::middleware::process::run_workload;
use bps::middleware::stack::{FsBackend, IoStack};
use bps::workloads::spec::{AppOp, OpStream, Workload};

/// Process `p` owns blocks `p, p+n, p+2n, ...` — independent requests are
/// noncontiguous for everyone, the union is perfectly contiguous.
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

fn run(collective: bool) -> bps::core::trace::Trace {
    let w = Interleaved {
        procs: 4,
        blocks_per_proc: 256,
        block: 64 << 10,
        collective,
    };
    let cluster = Cluster::new(&ClusterConfig::hdd_cluster(4, 4, 1));
    let mut pfs = ParallelFs::new(4);
    let files: Vec<FileId> = w
        .file_sizes()
        .iter()
        .map(|&s| pfs.create(s, StripeLayout::default_over(4)))
        .collect();
    let stack = IoStack::new(cluster, FsBackend::Parallel(pfs));
    let (trace, _) = run_workload(stack, &w, &files, Dur::from_micros(5));
    trace
}

fn main() {
    println!("interleaved pattern: 4 processes x 256 blocks x 64 KiB (64 MiB union)\n");
    let indep = run(false);
    let coll = run(true);
    for (label, t) in [
        ("independent + sieving", &indep),
        ("two-phase collective ", &coll),
    ] {
        println!(
            "{label}: exec {:>7.3} s   FS moved {:>4} MiB   BPS {:>10.0}",
            t.execution_time().as_secs_f64(),
            t.bytes(Layer::FileSystem) >> 20,
            Bps.compute(t).unwrap()
        );
    }
    println!(
        "\nIndependent sieving makes every process drag its peers' blocks along\n\
         as holes (~4x the data); the collective reads the union once and ships\n\
         pieces over the network. BPS ranks the designs by what the application\n\
         experiences — exactly how the paper proposes comparing optimizations."
    );
}
