//! The streaming fold behind the simulation watermark matches the trace.
//!
//! Every engine wake tells the sink that nothing it emits from then on
//! starts before `min(now, start of every open multi-wake call)`, and
//! `StreamingMetrics` drops the busy periods that ended before that
//! instant. A watermark that is too late makes the fold panic; one that
//! is merely wrong in a way the fold cannot see would change `T`. Small
//! random workloads — 1 to 8 processes mixing sequential and random
//! contiguous reads and writes, sieved and unsieved noncontiguous reads,
//! two-phase collective reads and compute gaps, with and without faults
//! that force retries and abandoned calls — run once into
//! `StreamingMetrics` and once into a `Trace`, and every registry metric,
//! per-layer count and overlapped time must be bit-equal. Two longer fixed
//! runs make the fold drop spans while noncontiguous calls and parked
//! collective arrivals are open; a watermark that ignored either kind of
//! open call fails them.

use bps_core::extent::{Extent, Regions};
use bps_core::interval::IntervalSet;
use bps_core::metrics::{registry, Metric, MetricSelection};
use bps_core::record::{FileId, Layer};
use bps_core::sink::{RecordSink, StreamingMetrics};
use bps_core::time::{Dur, Nanos};
use bps_core::trace::Trace;
use bps_fs::cluster::{Cluster, ClusterConfig, DeviceSpec};
use bps_fs::layout::StripeLayout;
use bps_fs::localfs::LocalFs;
use bps_fs::pfs::ParallelFs;
use bps_middleware::prefetch::PrefetchConfig;
use bps_middleware::process::run_workload;
use bps_middleware::sieving::SievingConfig;
use bps_middleware::stack::RetryPolicy;
use bps_middleware::stack::{FsBackend, IoStack};
use bps_sim::device::DiskSched;
use bps_sim::fault::{FaultPlan, Outage};
use bps_sim::rng::Jitter;
use bps_workloads::spec::{AppOp, OpStream, Workload};
use proptest::prelude::*;

const FILE_SIZE: u64 = 16 << 20;
const FILES: usize = 2;

/// A workload spelled out op by op.
#[derive(Debug, Clone)]
struct Script {
    streams: Vec<Vec<AppOp>>,
}

impl Workload for Script {
    fn name(&self) -> &'static str {
        "script"
    }

    fn processes(&self) -> usize {
        self.streams.len()
    }

    fn file_sizes(&self) -> Vec<u64> {
        vec![FILE_SIZE; FILES]
    }

    fn stream(&self, pid: usize) -> OpStream {
        Box::new(self.streams[pid].clone().into_iter())
    }
}

/// Disjoint busy periods at a layer of a trace: what a union that never
/// forgets would retain.
fn busy_periods(trace: &Trace, layer: Layer) -> usize {
    IntervalSet::from_unsorted(trace.layer(layer).map(|r| r.interval())).period_count()
}

/// The stack around the workload.
#[derive(Debug, Clone)]
struct Setup {
    servers: usize,
    parallel: bool,
    sieving: bool,
    prefetch: bool,
    record_lower_layers: bool,
    faults: bool,
    max_attempts: u32,
    timeout: bool,
    seed: u64,
}

fn stack<S: RecordSink>(setup: &Setup, clients: usize, sink: S) -> (IoStack<S>, Vec<FileId>) {
    let mut fault = FaultPlan::none();
    if setup.faults {
        fault = fault
            .with_device_errors(0.05)
            .with_link_loss(0.02, Dur::from_micros(300))
            .with_outage(Outage {
                server: 0,
                start: Nanos(500_000),
                end: Nanos::from_millis(3),
            });
    }
    let cluster = Cluster::with_sink(
        &ClusterConfig {
            servers: setup.servers,
            clients,
            device: DeviceSpec::Ram {
                fixed: Dur::from_micros(100),
                rate: 100_000_000,
                capacity: 1 << 40,
            },
            sched: DiskSched::Fifo,
            server_cpu: Dur::from_micros(25),
            jitter: Jitter::NONE,
            seed: setup.seed,
            record_net_layer: setup.record_lower_layers,
            fault,
        },
        sink,
    );
    let (backend, files) = if setup.parallel {
        let mut pfs = ParallelFs::new(setup.servers);
        let files = (0..FILES)
            .map(|_| pfs.create(FILE_SIZE, StripeLayout::default_over(setup.servers)))
            .collect();
        (FsBackend::Parallel(pfs), files)
    } else {
        let mut fs = LocalFs::new(0).with_overhead(Dur::from_micros(50));
        let files = (0..FILES).map(|_| fs.create(FILE_SIZE)).collect();
        (FsBackend::Local(fs), files)
    };
    let mut stack = IoStack::new(cluster, backend);
    if !setup.sieving {
        stack.sieving = SievingConfig::disabled();
    }
    if setup.prefetch {
        stack.prefetch = Some(PrefetchConfig { window: 64 << 10 });
    }
    stack.retry = RetryPolicy {
        max_attempts: setup.max_attempts,
        base_backoff: Dur::from_micros(200),
        max_backoff: Dur::from_millis(2),
        timeout: setup.timeout.then(|| Dur::from_millis(2)),
    };
    (stack, files)
}

/// Strided regions for one noncontiguous call.
fn regions() -> impl Strategy<Value = Regions> {
    (0u64..1024, 1u64..16, 256u64..4096, 1u64..8)
        .prop_map(|(base, count, len, gap)| Regions::strided(base * 4096, len, len * gap, count))
}

/// A few ops of one process between collective calls.
fn independent_ops() -> impl Strategy<Value = Vec<AppOp>> {
    let file = 0usize..FILES;
    prop_oneof![
        // A sequential run of reads or writes.
        (file.clone(), 0u64..1024, 1u64..16, 1u64..32, any::<bool>()).prop_map(
            |(file, start_kb, count, len_kb, write)| {
                (0..count)
                    .map(|i| {
                        let extent = Extent::new((start_kb + i * len_kb) << 10, len_kb << 10);
                        if write {
                            AppOp::Write { file, extent }
                        } else {
                            AppOp::Read { file, extent }
                        }
                    })
                    .collect()
            }
        ),
        // One read or write at a random offset.
        (
            file.clone(),
            0u64..(FILE_SIZE >> 12) - 16,
            1u64..64,
            any::<bool>()
        )
            .prop_map(|(file, block, len_kb, write)| {
                let extent = Extent::new(block << 12, len_kb << 10);
                vec![if write {
                    AppOp::Write { file, extent }
                } else {
                    AppOp::Read { file, extent }
                }]
            }),
        // One noncontiguous call, sieved or not per the stack.
        (file, regions()).prop_map(|(file, regions)| vec![AppOp::ReadNoncontig { file, regions }]),
        // A compute gap, so busy periods stop touching.
        (0u64..500).prop_map(|us| vec![AppOp::Compute {
            dur: Dur::from_micros(us)
        }]),
    ]
}

const MAX_PROCS: usize = 8;

/// One phase of the workload for up to [`MAX_PROCS`] processes: every
/// process runs a few independent ops, or every process joins one
/// two-phase collective read.
fn phase() -> impl Strategy<Value = Vec<Vec<AppOp>>> {
    prop_oneof![
        proptest::collection::vec(
            proptest::collection::vec(independent_ops(), 0..10)
                .prop_map(|ops| ops.into_iter().flatten().collect::<Vec<_>>()),
            MAX_PROCS,
        ),
        (
            0usize..FILES,
            proptest::collection::vec(regions(), MAX_PROCS)
        )
            .prop_map(|(file, per_proc)| {
                per_proc
                    .into_iter()
                    .map(|regions| vec![AppOp::CollectiveReadNoncontig { file, regions }])
                    .collect()
            }),
    ]
}

/// 1 to [`MAX_PROCS`] processes running up to eleven phases.
fn workload() -> impl Strategy<Value = Script> {
    (1..=MAX_PROCS, proptest::collection::vec(phase(), 1..12)).prop_map(|(procs, phases)| {
        let mut streams = vec![Vec::new(); procs];
        for phase in phases {
            for (stream, ops) in streams.iter_mut().zip(phase) {
                stream.extend(ops);
            }
        }
        Script { streams }
    })
}

fn setup() -> impl Strategy<Value = Setup> {
    (
        (1usize..=4, any::<bool>(), any::<bool>(), any::<bool>()),
        (any::<bool>(), any::<bool>(), 1u32..=3, any::<bool>()),
        any::<u64>(),
    )
        .prop_map(
            |(
                (servers, parallel, sieving, prefetch),
                (record_lower_layers, faults, max_attempts, timeout),
                seed,
            )| Setup {
                servers,
                parallel,
                sieving,
                prefetch,
                record_lower_layers,
                faults,
                max_attempts,
                timeout,
                seed,
            },
        )
}

fn bits(v: Option<f64>) -> Option<u64> {
    v.map(f64::to_bits)
}

/// Run `w` into both sinks and compare everything either reports.
fn streamed_equals_traced(w: &Script, setup: &Setup) -> Trace {
    let cpu = Dur::from_micros(5);
    let clients = w.processes();
    let (s, files) = stack(
        setup,
        clients,
        StreamingMetrics::for_selection(&MetricSelection::all()),
    );
    let (stream, _) = run_workload(s, w, &files, cpu);
    let (t, files) = stack(setup, clients, Trace::new());
    let (trace, _) = run_workload(t, w, &files, cpu);

    for m in registry().all() {
        assert_eq!(
            bits(m.compute(&trace)),
            bits(m.finish(&stream)),
            "{}",
            m.name()
        );
    }
    assert_eq!(trace.len() as u64, stream.len());
    assert_eq!(trace.execution_time(), stream.execution_time());
    for layer in [
        Layer::Application,
        Layer::FileSystem,
        Layer::Device,
        Layer::Network,
        Layer::Retry,
    ] {
        assert_eq!(
            trace.layer(layer).count() as u64,
            stream.op_count(layer),
            "{:?}",
            layer
        );
    }
    for layer in [Layer::Application, Layer::FileSystem] {
        assert_eq!(trace.bytes(layer), stream.bytes(layer), "{:?}", layer);
        assert_eq!(trace.blocks(layer), stream.blocks(layer), "{:?}", layer);
        assert_eq!(
            trace.summed_io_time(layer),
            stream.summed_io_time(layer),
            "{:?}",
            layer
        );
        assert_eq!(
            trace.overlapped_io_time(layer),
            stream.overlapped_io_time(layer),
            "{:?}",
            layer
        );
    }
    trace
}

proptest! {
    #[test]
    fn streaming_behind_the_watermark_equals_the_trace(w in workload(), setup in setup()) {
        streamed_equals_traced(&w, &setup);
    }
}

/// The faulted stack of the long runs below: transient errors, timeouts
/// and an outage on server 0, with one attempt per request so failed calls
/// are abandoned.
fn faulted() -> Setup {
    Setup {
        servers: 2,
        parallel: true,
        sieving: false,
        prefetch: false,
        record_lower_layers: true,
        faults: true,
        max_attempts: 1,
        timeout: true,
        seed: 7,
    }
}

fn read_or_write(p: usize, k: u64) -> AppOp {
    let extent = Extent::new(((k * 7 + p as u64 * 131) % 2048) << 12, 4096);
    let file = p % FILES;
    if k % 4 == 1 {
        AppOp::Write { file, extent }
    } else {
        AppOp::Read { file, extent }
    }
}

fn compute(us: u64) -> AppOp {
    AppOp::Compute {
        dur: Dur::from_micros(us),
    }
}

/// Process 0 issues unsieved noncontiguous reads, each open across one
/// wake per region, between long compute gaps; the others issue short
/// reads and writes between short gaps. Busy periods pile up while process
/// 0 computes and keep ending inside each open call, so the fold drops
/// spans while a call is open, and only a watermark held at the call's
/// start keeps it from dropping one the call's record reaches.
#[test]
fn open_noncontig_calls_hold_the_watermark() {
    let mut streams = vec![Vec::new(); 4];
    for k in 0..90u64 {
        let offset = (k % 256) << 15;
        streams[0].push(AppOp::ReadNoncontig {
            file: 0,
            regions: Regions::strided(offset, 512, 2048, 16),
        });
        streams[0].push(compute(3_000));
    }
    for (p, stream) in streams.iter_mut().enumerate().skip(1) {
        for k in 0..300u64 {
            stream.push(read_or_write(p, k));
            stream.push(compute(1_000 + 700 * p as u64));
        }
    }
    let w = Script { streams };
    let trace = streamed_equals_traced(&w, &faulted());
    // The run really did abandon calls, and left more than twice the 64
    // busy periods a layer union retains before it drops some.
    assert!(trace.layer(Layer::Retry).count() > 0);
    let issued = w
        .streams
        .iter()
        .flatten()
        .filter(|op| !matches!(op, AppOp::Compute { .. }))
        .count();
    assert!(trace.layer(Layer::Application).count() < issued);
    assert!(busy_periods(&trace, Layer::Application) > 128);
    assert!(busy_periods(&trace, Layer::FileSystem) > 128);
}

/// Each round, process 3 reaches the collective read early and parks while
/// the others keep issuing short requests between gaps, so well over 64
/// busy periods end between its arrival and the barrier. Its record starts
/// at the arrival; only a watermark held there keeps the fold from dropping
/// the spans that record merges.
#[test]
fn parked_collective_arrivals_hold_the_watermark() {
    let mut streams = vec![Vec::new(); 4];
    for round in 0..4u64 {
        for (p, stream) in streams.iter_mut().enumerate() {
            let ops = if p == 3 { 2 } else { 100 };
            for k in 0..ops {
                stream.push(read_or_write(p, round * 100 + k));
                stream.push(compute(1_000 + 700 * p as u64));
            }
            stream.push(AppOp::CollectiveReadNoncontig {
                file: 0,
                regions: vec![Extent::new((p as u64) << 16, 4096)].into(),
            });
        }
    }
    let trace = streamed_equals_traced(&Script { streams }, &faulted());
    assert!(trace.layer(Layer::Retry).count() > 0);
    assert!(busy_periods(&trace, Layer::FileSystem) > 256);
}
