//! Assembly: lower a validated node list into the engine types.
//!
//! [`TopologySpec::build`] turns a node list into the exact
//! [`IoStack`]/[`Cluster`] pair the experiment runner historically
//! hardcoded. It reads each [`NodeSpec`] directly: middleware nodes set
//! the stack's sieving and read-ahead, the file-system node picks the
//! backend and server count, a `Net` node composes link loss and network
//! recording, and the `Device` node (HDD when absent) picks the server
//! device and its disk scheduler. A `Pfs` node's `server_cpu_us`
//! replaces [`BuildEnv::server_cpu`]. The prebuilt topologies
//! ([`TopologySpec::local`], [`TopologySpec::pfs`]) reproduce the
//! pre-topology assembly byte for byte — same config fields, same
//! construction order, same RNG consumption.

use crate::spec::NodeSpec;
use crate::{TopologyError, TopologySpec};
use bps_core::record::FileId;
use bps_core::sink::RecordSink;
use bps_core::time::Dur;
use bps_fs::cluster::{Cluster, ClusterConfig};
use bps_fs::layout::StripeLayout;
use bps_fs::localfs::LocalFs;
use bps_fs::pfs::ParallelFs;
use bps_middleware::prefetch::PrefetchConfig;
use bps_middleware::sieving::SievingConfig;
use bps_middleware::stack::RetryPolicy;
use bps_middleware::stack::{FsBackend, IoStack};
use bps_sim::device::{DeviceNode, DiskSched};
use bps_sim::fault::FaultPlan;
use bps_sim::rng::Jitter;
use serde::{Deserialize, Serialize};

/// How a parallel file system places each file's stripes. A scenario
/// names it as its `"layout"`; local file systems ignore it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Layout {
    /// Default 64 KB striping over all servers (the paper's IOR setup).
    DefaultStripe,
    /// File `i` pinned to server `i % servers` (the paper's "pure"
    /// concurrency setup: each process's file on its own server).
    PinnedPerFile,
}

/// Everything the surrounding experiment supplies that is not part of
/// the topology itself: scale, seeding, fault plan, and the middleware
/// defaults a topology may override.
#[derive(Debug, Clone)]
pub struct BuildEnv<'a> {
    /// Number of client nodes (clamped to at least 1).
    pub clients: usize,
    /// Per-request server CPU cost, unless the `Pfs` node fixes one.
    pub server_cpu: Dur,
    /// Simulation seed.
    pub seed: u64,
    /// Sizes of the files to create, in workload order.
    pub file_sizes: &'a [u64],
    /// Stripe placement for parallel file systems.
    pub layout: Layout,
    /// Sieving configuration used when no `Sieving` node overrides it.
    pub sieving: SievingConfig,
    /// Retry policy for transient failures.
    pub retry: RetryPolicy,
    /// Fault plan; a lossy `Net` node composes link loss on top.
    pub fault: FaultPlan,
}

/// A built stack plus the file handles for the workload's files.
pub struct BuiltStack<S: RecordSink> {
    /// The assembled I/O stack, ready for `run_workload`.
    pub stack: IoStack<S>,
    /// One handle per entry of `BuildEnv::file_sizes`.
    pub files: Vec<FileId>,
}

impl TopologySpec {
    /// Validate the chain and assemble it over `sink`.
    pub fn build<S: RecordSink>(
        &self,
        env: &BuildEnv<'_>,
        sink: S,
    ) -> Result<BuiltStack<S>, TopologyError> {
        self.validate()?;
        let mut fs = None;
        let mut device = DeviceNode::Hdd;
        let mut sched = None;
        let mut sieving = env.sieving;
        let mut prefetch = None;
        let mut fault = env.fault.clone();
        let mut record_net = false;
        for node in self.nodes() {
            match node {
                NodeSpec::Collective => {}
                NodeSpec::Sieving { enabled: true } => sieving = SievingConfig::romio_default(),
                NodeSpec::Sieving { enabled: false } => sieving = SievingConfig::disabled(),
                NodeSpec::Prefetch { window_kb } => {
                    prefetch = Some(PrefetchConfig {
                        window: window_kb << 10,
                    })
                }
                NodeSpec::LocalFs { .. } | NodeSpec::Pfs { .. } => fs = Some(node),
                NodeSpec::Net { record, .. } => {
                    record_net = record.unwrap_or(false);
                    if let Some((rate, delay_ms)) = node.link_loss() {
                        fault = fault.with_link_loss(rate, Dur::from_millis(delay_ms));
                    }
                }
                NodeSpec::Device {
                    device: d,
                    sched: s,
                } => (device, sched) = (d.clone(), *s),
            }
        }
        let fs = fs.expect("validation guarantees a file-system node");

        let (servers, server_cpu) = match fs {
            NodeSpec::Pfs {
                servers,
                server_cpu_us,
            } => (
                *servers,
                server_cpu_us.map_or(env.server_cpu, Dur::from_micros),
            ),
            _ => (1, env.server_cpu),
        };
        let cfg = ClusterConfig {
            servers,
            clients: env.clients.max(1),
            device,
            sched: sched.unwrap_or(DiskSched::Fifo),
            server_cpu,
            jitter: Jitter::DEFAULT,
            seed: env.seed,
            record_net_layer: record_net,
            fault,
        };
        let cluster = Cluster::with_sink(&cfg, sink);

        let (backend, files) = match *fs {
            NodeSpec::LocalFs { overhead_us } => {
                let mut local = LocalFs::new(0);
                if let Some(us) = overhead_us {
                    local = local.with_overhead(Dur::from_micros(us));
                }
                let files = env.file_sizes.iter().map(|&s| local.create(s)).collect();
                (FsBackend::Local(local), files)
            }
            NodeSpec::Pfs { .. } => {
                let mut pfs = ParallelFs::new(servers);
                let files = env
                    .file_sizes
                    .iter()
                    .enumerate()
                    .map(|(i, &s)| {
                        let layout = match env.layout {
                            Layout::DefaultStripe => StripeLayout::default_over(servers),
                            Layout::PinnedPerFile => StripeLayout::pinned(i % servers),
                        };
                        pfs.create(s, layout)
                    })
                    .collect();
                (FsBackend::Parallel(pfs), files)
            }
            _ => unreachable!("`fs` is a file-system node"),
        };

        let mut stack = IoStack::new(cluster, backend);
        stack.sieving = sieving;
        stack.prefetch = prefetch;
        stack.retry = env.retry;
        Ok(BuiltStack { stack, files })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bps_core::trace::Trace;

    fn env(file_sizes: &[u64]) -> BuildEnv<'_> {
        BuildEnv {
            clients: 2,
            server_cpu: Dur::from_micros(25),
            seed: 7,
            file_sizes,
            layout: Layout::DefaultStripe,
            sieving: SievingConfig::romio_default(),
            retry: RetryPolicy::default(),
            fault: FaultPlan::none(),
        }
    }

    #[test]
    fn local_prebuilt_assembles_single_server() {
        let sizes = [1 << 20];
        let built = TopologySpec::local(DeviceNode::Hdd)
            .build(&env(&sizes), Trace::new())
            .unwrap();
        assert!(matches!(built.stack.backend, FsBackend::Local(_)));
        assert_eq!(built.files.len(), 1);
        assert!(built.stack.prefetch.is_none());
    }

    #[test]
    fn pfs_prebuilt_assembles_striped_servers() {
        let sizes = [1 << 20, 1 << 20];
        let built = TopologySpec::pfs(4)
            .build(&env(&sizes), Trace::new())
            .unwrap();
        assert!(matches!(built.stack.backend, FsBackend::Parallel(_)));
        assert_eq!(built.files.len(), 2);
    }

    #[test]
    fn middleware_nodes_configure_the_stack() {
        let sizes = [1 << 20];
        let spec = TopologySpec::new(vec![
            NodeSpec::Sieving { enabled: false },
            NodeSpec::Prefetch { window_kb: 256 },
            NodeSpec::Pfs {
                servers: 2,
                server_cpu_us: None,
            },
            NodeSpec::Device {
                device: DeviceNode::Ssd,
                sched: None,
            },
        ]);
        let built = spec.build(&env(&sizes), Trace::new()).unwrap();
        assert_eq!(built.stack.sieving, SievingConfig::disabled());
        assert_eq!(
            built.stack.prefetch,
            Some(PrefetchConfig { window: 256 << 10 })
        );
    }

    #[test]
    fn pfs_and_device_fields_reach_the_cluster() {
        use bps_workloads::iozone::{Iozone, IozoneMode};
        use bps_workloads::spec::Workload;
        // Four processes of random 1 MB reads, far apart, queue on one
        // server's disk, where the elevator shortens seeks; a fixed server
        // CPU replaces the environment's.
        let w = Iozone {
            mode: IozoneMode::RandomRead,
            file_size: 256 << 20,
            record_size: 1 << 20,
            processes: 4,
            seed: 3,
        };
        let sizes = w.file_sizes();
        let run = |server_cpu_us, sched| {
            let built = TopologySpec::new(vec![
                NodeSpec::Pfs {
                    servers: 1,
                    server_cpu_us,
                },
                NodeSpec::Device {
                    device: DeviceNode::Hdd,
                    sched,
                },
            ])
            .build(&env(&sizes), Trace::new())
            .unwrap();
            let (trace, _) = bps_middleware::process::run_workload(
                built.stack,
                &w,
                &built.files,
                Dur::from_micros(5),
            );
            trace.execution_time()
        };
        let plain = run(None, None);
        assert_eq!(run(None, Some(DiskSched::Fifo)), plain);
        assert_eq!(run(Some(25), None), plain, "env's server CPU is 25 us");
        assert!(run(Some(2_000), None) > plain);
        assert!(run(None, Some(DiskSched::Elevator)) < plain);
    }

    #[test]
    fn invalid_topology_refuses_to_build() {
        let sizes = [1 << 20];
        let err =
            match TopologySpec::new(vec![NodeSpec::Collective]).build(&env(&sizes), Trace::new()) {
                Err(e) => e,
                Ok(_) => panic!("expected validation failure"),
            };
        assert!(err.0.contains("file-system node"), "{err}");
    }
}
