//! The simulated cluster: clients, I/O servers, switch, and the shared
//! trace.
//!
//! Mirrors the paper's testbed topology — client nodes and I/O server nodes
//! on Gigabit Ethernet through one switch, each server with its own disk —
//! at the fidelity the experiments need: every NIC, the switch backplane,
//! each server CPU, and each device is a contended FIFO resource.
//!
//! Every layer hands its records to the cluster's [`RecordSink`] through
//! [`Cluster::record`] the moment the simulated access completes, in
//! completion order; nothing is buffered between the stack and the sink.

use crate::layout::Chunk;
use bps_core::error::IoError;
use bps_core::record::{FileId, IoOp, IoRecord, Layer, ProcessId};
use bps_core::sink::RecordSink;
use bps_core::time::{Dur, Nanos};
use bps_core::trace::Trace;
use bps_sim::device::{Device, DeviceNode, DeviceReq, DiskSched};
use bps_sim::fault::{FaultInjector, FaultPlan};
use bps_sim::net::{Link, Switch};
use bps_sim::rng::{Jitter, SimRng};

/// Cluster construction parameters.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Number of I/O server nodes.
    pub servers: usize,
    /// Number of client nodes.
    pub clients: usize,
    /// Device on each server.
    pub device: DeviceNode,
    /// Disk scheduling policy.
    pub sched: DiskSched,
    /// Per-request CPU cost on a server (request parsing, FS lookup).
    pub server_cpu: Dur,
    /// Service-time jitter.
    pub jitter: Jitter,
    /// Master seed; every device gets a forked stream.
    pub seed: u64,
    /// Also record `Layer::Network` records for the payload leg of each
    /// remote chunk (adds one record per chunk).
    pub record_net_layer: bool,
    /// Fault injection plan. [`FaultPlan::none()`] (the default) is
    /// bit-for-bit neutral: the injector's randomness is derived from
    /// `(fault.seed, seed)` independently of the device streams, and every
    /// check short-circuits when its rate is zero.
    pub fault: FaultPlan,
}

impl ClusterConfig {
    /// A small HDD-backed cluster with sensible defaults.
    pub fn hdd_cluster(servers: usize, clients: usize, seed: u64) -> Self {
        ClusterConfig {
            servers,
            clients,
            device: DeviceNode::Hdd,
            sched: DiskSched::Fifo,
            server_cpu: Dur::from_micros(25),
            jitter: Jitter::DEFAULT,
            seed,
            record_net_layer: false,
            fault: FaultPlan::none(),
        }
    }
}

/// One I/O server node.
struct ServerNode {
    device: Device,
    nic_in: Link,
    nic_out: Link,
}

/// One client node.
struct ClientNode {
    nic_in: Link,
    nic_out: Link,
}

/// Size of a request header message on the wire.
const REQUEST_MSG: u64 = 128;
/// Size of a write acknowledgement on the wire.
const ACK_MSG: u64 = 64;

/// The assembled cluster plus the record sink being fed.
///
/// Generic over the [`RecordSink`] observing completed accesses: the
/// default `Trace` materializes every record as before, while e.g.
/// `StreamingMetrics` folds each record into constant-size accumulators
/// the moment the simulated request completes.
pub struct Cluster<S: RecordSink = Trace> {
    servers: Vec<ServerNode>,
    clients: Vec<ClientNode>,
    switch: Switch,
    server_cpu: Dur,
    record_net_layer: bool,
    fault: FaultInjector,
    /// The global record observer (paper §III.B Step 2). All layers feed
    /// it as each access completes; experiments read it back at the end of
    /// a run.
    pub sink: S,
    /// Records routed to the sink over this cluster's lifetime. Flushed to
    /// telemetry on drop so the hot path pays one integer add, not an
    /// atomic.
    tele_records: u64,
}

impl Cluster<Trace> {
    /// Build a cluster from a config, collecting records into a [`Trace`].
    pub fn new(cfg: &ClusterConfig) -> Self {
        Cluster::with_sink(cfg, Trace::new())
    }
}

impl<S: RecordSink> Cluster<S> {
    /// Build a cluster from a config, streaming records into `sink`.
    pub fn with_sink(cfg: &ClusterConfig, sink: S) -> Self {
        assert!(cfg.servers >= 1, "cluster needs at least one server");
        assert!(cfg.clients >= 1, "cluster needs at least one client");
        let mut rng = SimRng::seed_from_u64(cfg.seed);
        let servers = (0..cfg.servers)
            .map(|i| ServerNode {
                device: cfg.device.build(cfg.sched, cfg.jitter, rng.fork(i as u64)),
                nic_in: Link::gigabit_ethernet(),
                nic_out: Link::gigabit_ethernet(),
            })
            .collect();
        let clients = (0..cfg.clients)
            .map(|_| ClientNode {
                nic_in: Link::gigabit_ethernet(),
                nic_out: Link::gigabit_ethernet(),
            })
            .collect();
        Cluster {
            servers,
            clients,
            switch: Switch::gigabit_cluster(),
            server_cpu: cfg.server_cpu,
            record_net_layer: cfg.record_net_layer,
            fault: FaultInjector::new(&cfg.fault, cfg.seed),
            sink,
            tele_records: 0,
        }
    }

    /// Hand one completed record to the sink, in completion order.
    #[inline]
    pub fn record(&mut self, record: IoRecord) {
        self.tele_records += 1;
        self.sink.on_record(&record);
    }

    /// Number of I/O servers.
    pub fn server_count(&self) -> usize {
        self.servers.len()
    }

    /// Number of client nodes.
    pub fn client_count(&self) -> usize {
        self.clients.len()
    }

    /// Direct (no-network) device I/O on server `s` — the local-file-system
    /// path. Returns the completion instant. Under fault injection, an
    /// outage fails fast (no network on this path) and a transient device
    /// error surfaces at the grant's end — the device did the work, the
    /// data is bad.
    pub fn local_io(
        &mut self,
        server: usize,
        lba: u64,
        bytes: u64,
        op: IoOp,
        issue: Nanos,
    ) -> Result<Nanos, IoError> {
        if let Some(until) = self.fault.outage_until(server, issue) {
            return Err(IoError::ServerOffline {
                server,
                at: issue,
                until,
            });
        }
        let blocks = bps_core::block::blocks_for_bytes(bytes);
        let slow = self.fault.slowdown(server);
        let grant =
            self.servers[server]
                .device
                .submit_scaled(issue, DeviceReq { lba, blocks, op }, slow);
        if self.fault.device_error(server) {
            return Err(IoError::DeviceFault {
                server,
                at: grant.end,
            });
        }
        Ok(grant.end)
    }

    /// One chunk of remote I/O from client `c` to server `chunk.server`,
    /// issued at `issue`. Models the full path: client NIC → switch →
    /// server NIC → server CPU → device → (data back for reads / ack back
    /// for writes). Records a `Layer::FileSystem` record for the data moved
    /// and returns the completion instant at the client.
    ///
    /// Fault handling: an offline server is detected only after the request
    /// hop and an error reply come back (the error carries the detection
    /// instant and the recovery time); a straggler factor scales both the
    /// server CPU and the device service; a transient device error pays the
    /// full device grant plus an error-reply round trip; a lossy link adds
    /// one retransmit delay to the payload leg. Errors return `Err` without
    /// recording a `Layer::FileSystem` record — no data moved for the
    /// caller; retries are recorded by the middleware as `Layer::Retry`.
    #[allow(clippy::too_many_arguments)]
    pub fn remote_chunk_io(
        &mut self,
        pid: ProcessId,
        file: FileId,
        client: usize,
        chunk: &Chunk,
        lba: u64,
        op: IoOp,
        issue: Nanos,
    ) -> Result<Nanos, IoError> {
        let bytes = chunk.len;
        let blocks = bps_core::block::blocks_for_bytes(bytes);
        let server = chunk.server;
        // One loss draw per call, applied to the payload leg below. Drawn
        // up front so the RNG stream does not depend on which branch runs.
        let lost = self.fault.link_lost();
        // Request (plus payload, for writes) travels client → server.
        let mut outbound_issue = issue;
        let outbound = match op {
            IoOp::Read => REQUEST_MSG,
            IoOp::Write => {
                // Writes carry the payload outbound; a lost packet delays
                // the transfer before it reaches the server.
                if lost {
                    outbound_issue += self.fault.retransmit_delay();
                }
                REQUEST_MSG + bytes
            }
        };
        let t = self.clients[client]
            .nic_out
            .transfer(outbound_issue, outbound);
        let t = self.switch.forward(t, outbound);
        let t = self.servers[server].nic_in.transfer(t, outbound);
        let arrived = t;
        // An offline server refuses the request; the client learns of it
        // from a short error reply, paying the network both ways.
        if let Some(until) = self.fault.outage_until(server, t) {
            let e = self.servers[server].nic_out.transfer(t, ACK_MSG);
            let e = self.switch.forward(e, ACK_MSG);
            let detected = self.clients[client].nic_in.transfer(e, ACK_MSG);
            return Err(IoError::ServerOffline {
                server,
                at: detected,
                until,
            });
        }
        // Server CPU (scaled by the server's straggler factor), then the disk.
        let slow = self.fault.slowdown(server);
        let cpu = if slow == 1.0 {
            self.server_cpu
        } else {
            Dur::from_secs_f64(self.server_cpu.as_secs_f64() * slow)
        };
        let dev_arrival = t + cpu;
        let grant = self.servers[server].device.submit_scaled(
            dev_arrival,
            DeviceReq { lba, blocks, op },
            slow,
        );
        // A transient device error: the device did the work, but the client
        // gets an error reply instead of data.
        if self.fault.device_error(server) {
            let e = self.servers[server].nic_out.transfer(grant.end, ACK_MSG);
            let e = self.switch.forward(e, ACK_MSG);
            let detected = self.clients[client].nic_in.transfer(e, ACK_MSG);
            return Err(IoError::DeviceFault {
                server,
                at: detected,
            });
        }
        // Reply (payload for reads, ack for writes) travels server → client.
        let mut reply_at = grant.end;
        let inbound = match op {
            IoOp::Read => {
                // Reads carry the payload inbound; a lost packet delays the
                // reply leg.
                if lost {
                    reply_at += self.fault.retransmit_delay();
                }
                bytes
            }
            IoOp::Write => ACK_MSG,
        };
        let t = self.servers[server].nic_out.transfer(reply_at, inbound);
        let t = self.switch.forward(t, inbound);
        let done = self.clients[client].nic_in.transfer(t, inbound);
        if self.record_net_layer {
            // The payload leg: outbound for writes (issue until the data
            // reaches the server NIC), inbound for reads (reply until the
            // data reaches the client).
            let (net_start, net_end) = match op {
                IoOp::Read => (reply_at, done),
                IoOp::Write => (outbound_issue, arrived),
            };
            self.record(IoRecord::new(
                pid,
                op,
                file,
                chunk.file_offset,
                bytes,
                net_start,
                net_end,
                Layer::Network,
            ));
        }
        self.record(IoRecord::new(
            pid,
            op,
            file,
            chunk.file_offset,
            bytes,
            issue,
            done,
            Layer::FileSystem,
        ));
        Ok(done)
    }

    /// Record a failed or abandoned attempt of a retried request
    /// (`Layer::Retry`): the span from issue to the instant the failure was
    /// detected. Retry records never count toward the four paper metrics.
    #[allow(clippy::too_many_arguments)]
    pub fn record_retry(
        &mut self,
        pid: ProcessId,
        file: FileId,
        offset: u64,
        bytes: u64,
        op: IoOp,
        start: Nanos,
        end: Nanos,
    ) {
        self.record(IoRecord::new(
            pid,
            op,
            file,
            offset,
            bytes,
            start,
            end.max(start),
            Layer::Retry,
        ));
    }

    /// A client-to-client data shipment (the exchange phase of two-phase
    /// collective I/O): sender NIC -> switch -> receiver NIC. Returns the
    /// delivery instant.
    pub fn client_to_client(&mut self, from: usize, to: usize, bytes: u64, at: Nanos) -> Nanos {
        if from == to {
            // Local delivery: a memcpy, effectively free at this scale.
            return at;
        }
        let t = self.clients[from].nic_out.transfer(at, bytes);
        let t = self.switch.forward(t, bytes);
        self.clients[to].nic_in.transfer(t, bytes)
    }

    /// Record a file-system-layer access that bypassed the network path
    /// (local file systems) — data moved between FS and device.
    #[allow(clippy::too_many_arguments)]
    pub fn record_fs_access(
        &mut self,
        pid: ProcessId,
        file: FileId,
        offset: u64,
        bytes: u64,
        op: IoOp,
        start: Nanos,
        end: Nanos,
    ) {
        self.record(IoRecord::new(
            pid,
            op,
            file,
            offset,
            bytes,
            start,
            end,
            Layer::FileSystem,
        ));
    }
}

impl<S: RecordSink> Drop for Cluster<S> {
    fn drop(&mut self) {
        bps_telemetry::add(bps_telemetry::Counter::SinkRecords, self.tele_records);
    }
}

impl<S: RecordSink> std::fmt::Debug for Cluster<S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Cluster")
            .field("servers", &self.servers.len())
            .field("clients", &self.clients.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ram_cluster(servers: usize, clients: usize) -> Cluster {
        Cluster::new(&ClusterConfig {
            servers,
            clients,
            device: DeviceNode::Ram {
                fixed_us: 100,
                rate: 100_000_000,
                capacity: 1 << 40,
            },
            sched: DiskSched::Fifo,
            server_cpu: Dur::from_micros(25),
            jitter: Jitter::NONE,
            seed: 1,
            record_net_layer: false,
            fault: FaultPlan::none(),
        })
    }

    fn chunk(server: usize, len: u64) -> Chunk {
        Chunk {
            server,
            slot: 0,
            server_offset: 0,
            file_offset: 0,
            len,
        }
    }

    #[test]
    fn remote_read_pays_network_and_device() {
        let mut c = ram_cluster(1, 1);
        let done = c
            .remote_chunk_io(
                ProcessId(0),
                FileId(0),
                0,
                &chunk(0, 64 << 10),
                0,
                IoOp::Read,
                Nanos::ZERO,
            )
            .unwrap();
        let secs = done.since(Nanos::ZERO).as_secs_f64();
        // 64 KB device transfer (~655 us) + device fixed (100 us) + server
        // CPU (25 us) + request hop (~250 us of latency) + 64 KB data reply
        // over two NICs + switch (~1.3 ms total path). Sanity bounds:
        assert!((0.0015..0.0035).contains(&secs), "{secs}");
        // FS record captured.
        use bps_core::record::Layer;
        assert_eq!(c.sink.layer(Layer::FileSystem).count(), 1);
        assert_eq!(c.sink.bytes(Layer::FileSystem), 64 << 10);
    }

    #[test]
    fn writes_ship_payload_outbound() {
        let mut c = ram_cluster(1, 1);
        let r = c
            .remote_chunk_io(
                ProcessId(0),
                FileId(0),
                0,
                &chunk(0, 1 << 20),
                0,
                IoOp::Read,
                Nanos::ZERO,
            )
            .unwrap();
        let mut c2 = ram_cluster(1, 1);
        let w = c2
            .remote_chunk_io(
                ProcessId(0),
                FileId(0),
                0,
                &chunk(0, 1 << 20),
                0,
                IoOp::Write,
                Nanos::ZERO,
            )
            .unwrap();
        // Same total payload crosses the wire once in each direction, so
        // read and write completions are within ~25% of each other.
        let ratio = w.since(Nanos::ZERO).as_secs_f64() / r.since(Nanos::ZERO).as_secs_f64();
        assert!((0.75..1.25).contains(&ratio), "{ratio}");
    }

    #[test]
    fn two_servers_parallelize() {
        // One big read split across two servers completes faster than the
        // same bytes on one server.
        let total = 4 << 20;
        let mut one = ram_cluster(1, 1);
        let a = one
            .remote_chunk_io(
                ProcessId(0),
                FileId(0),
                0,
                &chunk(0, total),
                0,
                IoOp::Read,
                Nanos::ZERO,
            )
            .unwrap();
        let mut two = ram_cluster(2, 1);
        let b1 = two
            .remote_chunk_io(
                ProcessId(0),
                FileId(0),
                0,
                &chunk(0, total / 2),
                0,
                IoOp::Read,
                Nanos::ZERO,
            )
            .unwrap();
        let b2 = two
            .remote_chunk_io(
                ProcessId(0),
                FileId(0),
                0,
                &chunk(1, total / 2),
                0,
                IoOp::Read,
                Nanos::ZERO,
            )
            .unwrap();
        let b = b1.max(b2);
        // Devices run in parallel; the shared client NIC still serializes
        // the replies, so the speedup is real but < 2x.
        assert!(b < a, "split {b} vs single {a}");
    }

    #[test]
    fn local_io_skips_network() {
        let mut c = ram_cluster(1, 1);
        let done = c.local_io(0, 0, 64 << 10, IoOp::Read, Nanos::ZERO).unwrap();
        // Just the device: 100 us fixed + ~655 us transfer.
        let secs = done.since(Nanos::ZERO).as_secs_f64();
        assert!((0.0006..0.0009).contains(&secs), "{secs}");
    }

    #[test]
    fn streaming_sink_sees_the_same_records() {
        use bps_core::sink::StreamingMetrics;
        let cfg = ClusterConfig {
            servers: 1,
            clients: 1,
            device: DeviceNode::Ram {
                fixed_us: 100,
                rate: 100_000_000,
                capacity: 1 << 40,
            },
            sched: DiskSched::Fifo,
            server_cpu: Dur::from_micros(25),
            jitter: Jitter::NONE,
            seed: 1,
            record_net_layer: false,
            fault: FaultPlan::none(),
        };
        let mut traced = Cluster::new(&cfg);
        let mut streamed = Cluster::with_sink(&cfg, StreamingMetrics::default());
        for c in 0..2u64 {
            traced
                .remote_chunk_io(
                    ProcessId(0),
                    FileId(0),
                    0,
                    &chunk(0, 64 << 10),
                    c * 128,
                    IoOp::Read,
                    Nanos(c * 5 * 1_000),
                )
                .unwrap();
            streamed
                .remote_chunk_io(
                    ProcessId(0),
                    FileId(0),
                    0,
                    &chunk(0, 64 << 10),
                    c * 128,
                    IoOp::Read,
                    Nanos(c * 5 * 1_000),
                )
                .unwrap();
        }
        use bps_core::record::Layer;
        assert_eq!(
            traced.sink.layer(Layer::FileSystem).count() as u64,
            streamed.sink.op_count(Layer::FileSystem)
        );
        assert_eq!(
            traced.sink.overlapped_io_time(Layer::FileSystem),
            streamed.sink.overlapped_io_time(Layer::FileSystem)
        );
    }

    #[test]
    #[should_panic(expected = "at least one server")]
    fn empty_cluster_rejected() {
        let mut cfg = ClusterConfig::hdd_cluster(1, 1, 0);
        cfg.servers = 0;
        let _ = Cluster::new(&cfg);
    }
}
