//! The PVFS2-like striped parallel file system.
//!
//! A client request is split by the file's stripe layout into per-server
//! chunks issued concurrently; the request completes when the last chunk
//! does. Per-file layout attributes reproduce both of the paper's
//! configurations: the default stripe over all servers (§IV.C.3's IOR
//! experiment) and the one-file-per-server pinning (§IV.C.3's "pure"
//! concurrency experiment).

use crate::cluster::Cluster;
use crate::file::FileMeta;
use crate::layout::{Chunk, StripeLayout};
use bps_core::error::IoError;
use bps_core::record::{FileId, IoOp, ProcessId};
use bps_core::sink::RecordSink;
use bps_core::time::{Dur, Nanos};

/// The parallel file system client + metadata service.
pub struct ParallelFs {
    files: Vec<FileMeta>,
    /// Next free LBA on each cluster server (contiguous extent allocator).
    alloc_cursor: Vec<u64>,
    /// Stripe fan-out buffer reused by every [`io`](Self::io) call.
    chunks: Vec<Chunk>,
}

impl ParallelFs {
    /// Client-side software cost per request (request construction,
    /// layout lookup, PVFS client state machine).
    const CLIENT_OVERHEAD: Dur = Dur(50_000);

    /// A PFS over a cluster of `server_count` I/O servers.
    pub fn new(server_count: usize) -> Self {
        ParallelFs {
            files: Vec::new(),
            alloc_cursor: vec![64; server_count],
            chunks: Vec::new(),
        }
    }

    /// Create a file of `size` bytes with the given layout: one contiguous
    /// extent is reserved on each layout server for its share of the file.
    pub fn create(&mut self, size: u64, layout: StripeLayout) -> FileId {
        let id = FileId(self.files.len() as u32);
        let mut base_lba = Vec::with_capacity(layout.width());
        for (slot, &server) in layout.servers.iter().enumerate() {
            let share_blocks = bps_core::block::blocks_for_bytes(layout.server_share(slot, size));
            base_lba.push(self.alloc_cursor[server]);
            self.alloc_cursor[server] += share_blocks;
        }
        self.files.push(FileMeta {
            id,
            size,
            layout,
            base_lba,
        });
        id
    }

    /// A file's metadata.
    pub fn meta(&self, file: FileId) -> &FileMeta {
        &self.files[file.0 as usize]
    }

    /// Degraded-read inflation: reconstructing a chunk from the surviving
    /// servers moves this multiple of the chunk's bytes (replica + verify
    /// pass, mirroring RAID-style degraded reads).
    pub const DEGRADED_READ_INFLATION: u64 = 2;

    /// Perform a striped read or write, issued at `now` from `client`.
    /// Chunks are dispatched together after the client-side overhead; the
    /// call completes when the last chunk completes.
    ///
    /// Failover: when a *read* chunk fails with a transient error (offline
    /// or faulty server) and the cluster has another server, the client
    /// reissues the chunk as a degraded-stripe read against the next
    /// server, moving [`Self::DEGRADED_READ_INFLATION`]× the bytes
    /// (reconstruction overhead). The abandoned attempt is recorded as
    /// `Layer::Retry`. Writes and exhausted failovers propagate the error.
    #[allow(clippy::too_many_arguments)]
    pub fn io<S: RecordSink>(
        &mut self,
        cluster: &mut Cluster<S>,
        pid: ProcessId,
        client: usize,
        file: FileId,
        offset: u64,
        len: u64,
        op: IoOp,
        now: Nanos,
    ) -> Result<Nanos, IoError> {
        let meta = &self.files[file.0 as usize];
        if offset.checked_add(len).is_none_or(|end| end > meta.size) {
            return Err(IoError::BeyondEof {
                offset,
                len,
                size: meta.size,
            });
        }
        let t0 = now + Self::CLIENT_OVERHEAD;
        let mut chunks = std::mem::take(&mut self.chunks);
        meta.layout.map_into(offset, len, &mut chunks);
        let done = chunks.iter().try_fold(t0, |done, chunk| {
            let lba = meta.lba_of(chunk.slot, chunk.server_offset);
            let chunk_done = match cluster.remote_chunk_io(pid, file, client, chunk, lba, op, t0) {
                Ok(t) => t,
                Err(e) => Self::failover_chunk(cluster, pid, file, client, chunk, lba, op, t0, e)?,
            };
            Ok(done.max(chunk_done))
        });
        // Back on every exit path, so the next call allocates nothing.
        self.chunks = chunks;
        done
    }

    /// Reissue one failed read chunk against the next server as a degraded
    /// read; writes and non-transient errors propagate.
    #[allow(clippy::too_many_arguments)]
    fn failover_chunk<S: RecordSink>(
        cluster: &mut Cluster<S>,
        pid: ProcessId,
        file: FileId,
        client: usize,
        chunk: &Chunk,
        lba: u64,
        op: IoOp,
        t0: Nanos,
        err: IoError,
    ) -> Result<Nanos, IoError> {
        let servers = cluster.server_count();
        if op != IoOp::Read || servers < 2 || !err.is_transient() {
            return Err(err);
        }
        // The abandoned attempt: issue to failure detection.
        let detected = err.fail_time().unwrap_or(t0);
        cluster.record_retry(pid, file, chunk.file_offset, chunk.len, op, t0, detected);
        let degraded = Chunk {
            server: (chunk.server + 1) % servers,
            len: chunk.len * Self::DEGRADED_READ_INFLATION,
            ..*chunk
        };
        cluster.remote_chunk_io(pid, file, client, &degraded, lba, op, detected)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::ClusterConfig;
    use bps_core::record::Layer;
    use bps_sim::device::{DeviceNode, DiskSched};
    use bps_sim::fault::{FaultPlan, Outage};
    use bps_sim::rng::Jitter;

    fn ram_cluster(servers: usize, clients: usize) -> Cluster {
        faulted_ram_cluster(servers, clients, FaultPlan::none())
    }

    /// Asserts that nothing reached `cluster` yet: no record, and a read
    /// striped over every server lands exactly as on a fresh cluster, so
    /// no device, NIC or server queue holds earlier work.
    fn assert_untouched(cluster: &mut Cluster, servers: usize) {
        assert!(cluster.sink.is_empty(), "{:?}", cluster.sink.records());
        let probe = |cluster: &mut Cluster| {
            let mut pfs = ParallelFs::new(servers);
            let f = pfs.create(1 << 20, StripeLayout::default_over(servers));
            pfs.io(
                cluster,
                ProcessId(0),
                0,
                f,
                0,
                1 << 20,
                IoOp::Read,
                Nanos::ZERO,
            )
            .unwrap();
            std::mem::take(&mut cluster.sink).records().to_vec()
        };
        assert_eq!(probe(cluster), probe(&mut ram_cluster(servers, 1)));
    }

    fn faulted_ram_cluster(servers: usize, clients: usize, fault: FaultPlan) -> Cluster {
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
            seed: 3,
            record_net_layer: true,
            fault,
        })
    }

    #[test]
    fn striped_read_touches_all_servers() {
        let mut cluster = ram_cluster(4, 1);
        let mut pfs = ParallelFs::new(4);
        let f = pfs.create(16 << 20, StripeLayout::default_over(4));
        pfs.io(
            &mut cluster,
            ProcessId(0),
            0,
            f,
            0,
            1 << 20,
            IoOp::Read,
            Nanos::ZERO,
        )
        .unwrap();
        // 1 MiB over 64 KB stripes on 4 servers: 16 chunks, one per
        // stripe, so stripe `i` on server `i % 4` gives each server 4.
        let trace = &cluster.sink;
        assert_eq!(trace.layer(Layer::FileSystem).count(), 16);
        assert_eq!(trace.bytes(Layer::FileSystem), 1 << 20);
        let mut offsets: Vec<u64> = trace.layer(Layer::FileSystem).map(|r| r.offset).collect();
        offsets.sort_unstable();
        assert_eq!(offsets, (0..16).map(|i| i << 16).collect::<Vec<_>>());
    }

    #[test]
    fn more_servers_finish_sooner() {
        let run = |n: usize| {
            let mut cluster = ram_cluster(n, 1);
            let mut pfs = ParallelFs::new(n);
            let f = pfs.create(64 << 20, StripeLayout::default_over(n));
            let done = pfs
                .io(
                    &mut cluster,
                    ProcessId(0),
                    0,
                    f,
                    0,
                    16 << 20,
                    IoOp::Read,
                    Nanos::ZERO,
                )
                .unwrap();
            done.since(Nanos::ZERO).as_secs_f64()
        };
        let t1 = run(1);
        let t4 = run(4);
        // Device time parallelizes; the client NIC still serializes replies,
        // so speedup is > 1 but bounded.
        assert!(t4 < t1, "t4 {t4} vs t1 {t1}");
    }

    #[test]
    fn pinned_files_use_only_their_server() {
        // A 1 MiB read of a file pinned to server 2, with the servers in
        // `down` offline for the whole run.
        let read = |down: &[usize]| {
            let plan = down.iter().fold(FaultPlan::none(), |plan, &server| {
                plan.with_outage(Outage {
                    server,
                    start: Nanos::ZERO,
                    end: Nanos::from_millis(1_000),
                })
            });
            let mut cluster = faulted_ram_cluster(4, 2, plan);
            let mut pfs = ParallelFs::new(4);
            let f0 = pfs.create(1 << 20, StripeLayout::pinned(2));
            let done = pfs.io(
                &mut cluster,
                ProcessId(0),
                0,
                f0,
                0,
                1 << 20,
                IoOp::Read,
                Nanos::ZERO,
            );
            (done, std::mem::take(&mut cluster.sink))
        };
        // Every other server down: one chunk, served by server 2 with no
        // failed attempt, exactly as on the healthy cluster. A chunk sent
        // to server 0, 1 or 3 would have failed, or failed over with a
        // retry record.
        let (done, trace) = read(&[0, 1, 3]);
        assert!(done.is_ok(), "{done:?}");
        assert_eq!(trace.layer(Layer::FileSystem).count(), 1);
        assert_eq!(trace.bytes(Layer::FileSystem), 1 << 20);
        assert_eq!(trace.layer(Layer::Retry).count(), 0);
        let (healthy, healthy_trace) = read(&[]);
        assert_eq!(done, healthy);
        assert_eq!(trace.records(), healthy_trace.records());
        // Server 2 down: the one chunk fails there and fails over.
        let (done, trace) = read(&[2]);
        assert!(done.is_ok(), "{done:?}");
        assert_eq!(trace.layer(Layer::Retry).count(), 1);
    }

    #[test]
    fn extents_per_server_do_not_overlap() {
        let mut pfs = ParallelFs::new(2);
        let a = pfs.create(1 << 20, StripeLayout::default_over(2));
        let b = pfs.create(1 << 20, StripeLayout::default_over(2));
        let (ma, mb) = (pfs.meta(a).clone(), pfs.meta(b).clone());
        for slot in 0..2 {
            let a_end = ma.base_lba[slot]
                + bps_core::block::blocks_for_bytes(ma.layout.server_share(slot, 1 << 20));
            assert!(mb.base_lba[slot] >= a_end, "slot {slot}");
        }
    }

    #[test]
    fn read_past_eof_is_a_typed_error() {
        let mut cluster = ram_cluster(1, 1);
        let mut pfs = ParallelFs::new(1);
        let f = pfs.create(4096, StripeLayout::default_over(1));
        let err = pfs
            .io(
                &mut cluster,
                ProcessId(0),
                0,
                f,
                4096,
                1,
                IoOp::Read,
                Nanos::ZERO,
            )
            .unwrap_err();
        assert!(
            matches!(err, IoError::BeyondEof { size: 4096, .. }),
            "{err}"
        );
        assert!(!err.is_transient());
        // Nothing was issued to any device.
        assert_untouched(&mut cluster, 1);
    }

    /// An extent whose end overflows `u64` is past EOF, not a wrapped
    /// small end that maps to no chunks.
    #[test]
    fn overflowing_extent_is_beyond_eof() {
        let mut cluster = ram_cluster(2, 1);
        let mut pfs = ParallelFs::new(2);
        let f = pfs.create(4096, StripeLayout::default_over(2));
        let err = pfs
            .io(
                &mut cluster,
                ProcessId(0),
                0,
                f,
                u64::MAX - 10,
                512,
                IoOp::Read,
                Nanos::ZERO,
            )
            .unwrap_err();
        assert!(
            matches!(
                err,
                IoError::BeyondEof {
                    size: 4096,
                    len: 512,
                    ..
                }
            ),
            "{err}"
        );
        assert_untouched(&mut cluster, 2);
    }

    /// A read whose chunk hits an outage leaves the reused stripe buffer
    /// dirty, with failover taken or with the error returned part-way
    /// through the fan-out. The next healthy read must return what the same
    /// read returns on a fresh `ParallelFs`.
    #[test]
    fn reused_stripe_buffer_is_invisible_after_outage() {
        // Server 1 is down during the first read. In the second case its
        // failover target, server 2, is down too, so the error propagates.
        for down in [vec![1], vec![1, 2]] {
            let plan = down.iter().fold(FaultPlan::none(), |plan, &server| {
                plan.with_outage(Outage {
                    server,
                    start: Nanos::ZERO,
                    end: Nanos::from_millis(5),
                })
            });
            let run = |reuse: bool| {
                let mut cluster = faulted_ram_cluster(4, 1, plan.clone());
                let mut pfs = ParallelFs::new(4);
                let f = pfs.create(16 << 20, StripeLayout::default_over(4));
                let faulted = pfs.io(
                    &mut cluster,
                    ProcessId(0),
                    0,
                    f,
                    0,
                    1 << 20,
                    IoOp::Read,
                    Nanos::ZERO,
                );
                let faulted_records = std::mem::take(&mut cluster.sink).records().to_vec();
                if !reuse {
                    pfs = ParallelFs::new(4);
                    pfs.create(16 << 20, StripeLayout::default_over(4));
                }
                let at = Nanos::from_millis(50);
                let healthy = pfs.io(
                    &mut cluster,
                    ProcessId(0),
                    0,
                    f,
                    5000,
                    3 << 16,
                    IoOp::Read,
                    at,
                );
                let records = std::mem::take(&mut cluster.sink).records().to_vec();
                (faulted, faulted_records, healthy, records)
            };
            let reused = run(true);
            let (faulted, faulted_records, healthy, records) = &reused;
            assert_eq!(faulted.is_ok(), down.len() == 1, "{faulted:?}");
            assert!(faulted_records.iter().any(|r| r.layer == Layer::Retry));
            assert!(healthy.is_ok());
            assert_eq!(
                records
                    .iter()
                    .filter(|r| r.layer == Layer::FileSystem)
                    .count(),
                4
            );
            assert_eq!(reused, run(false), "down {down:?}");
        }
    }

    #[test]
    fn concurrent_clients_contend_on_shared_server() {
        // Two clients hammer one pinned file's server; their requests
        // serialize at the device.
        let mut cluster = ram_cluster(1, 2);
        let mut pfs = ParallelFs::new(1);
        let f = pfs.create(8 << 20, StripeLayout::pinned(0));
        let a = pfs
            .io(
                &mut cluster,
                ProcessId(0),
                0,
                f,
                0,
                4 << 20,
                IoOp::Read,
                Nanos::ZERO,
            )
            .unwrap();
        let b = pfs
            .io(
                &mut cluster,
                ProcessId(1),
                1,
                f,
                4 << 20,
                4 << 20,
                IoOp::Read,
                Nanos::ZERO,
            )
            .unwrap();
        // Second request's device service queues behind the first.
        let serial_each = 4.0 * 1024.0 * 1024.0 / 100e6;
        assert!(b.since(Nanos::ZERO).as_secs_f64() > 2.0 * serial_each * 0.9);
        let _ = a;
    }
}
