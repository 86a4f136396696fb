//! The local file system: one device, per-operation software overhead.
//!
//! Models the paper's "data was accessed through local file systems mounted
//! on HDD, SSD" path. Every request pays a fixed syscall + VFS + FS cost in
//! front of the device, which is what makes small-record sequential reads so
//! much slower than large-record ones (paper Figures 5–8). Calibrated so a
//! 4 KB-record sequential HDD read lands near the paper's Figure 7 anchor
//! (IOPS ≈ 5000, ~20 MB/s) and large records approach the sustained rate.

use crate::cluster::Cluster;
use crate::file::FileMeta;
use crate::layout::StripeLayout;
use bps_core::block::BLOCK_SIZE;
use bps_core::error::IoError;
use bps_core::record::{FileId, IoOp, ProcessId};
use bps_core::sink::RecordSink;
use bps_core::time::{Dur, Nanos};

/// A local file system on one server's device.
pub struct LocalFs {
    /// Cluster server whose device backs this file system.
    server: usize,
    /// Per-request software cost (syscall, VFS, block mapping).
    per_op_overhead: Dur,
    files: Vec<FileMeta>,
    /// Next free LBA on the device (contiguous extent allocator).
    next_lba: u64,
}

impl LocalFs {
    /// Default per-op software cost (calibrated against paper Fig. 7).
    pub const DEFAULT_OVERHEAD: Dur = Dur(120_000);

    /// A local FS on `server`'s device.
    pub fn new(server: usize) -> Self {
        LocalFs {
            server,
            per_op_overhead: Self::DEFAULT_OVERHEAD,
            files: Vec::new(),
            next_lba: 64,
        }
    }

    /// Override the per-op overhead (calibration knob).
    pub fn with_overhead(mut self, overhead: Dur) -> Self {
        self.per_op_overhead = overhead;
        self
    }

    /// Create a file of `size` bytes as one contiguous extent.
    pub fn create(&mut self, size: u64) -> FileId {
        let id = FileId(self.files.len() as u32);
        let blocks = bps_core::block::blocks_for_bytes(size);
        self.files.push(FileMeta {
            id,
            size,
            layout: StripeLayout::new(u64::MAX / 2, vec![self.server]),
            base_lba: vec![self.next_lba],
        });
        self.next_lba += blocks;
        id
    }

    /// Size of a file.
    pub fn file_size(&self, file: FileId) -> u64 {
        self.files[file.0 as usize].size
    }

    /// Perform a read or write of `[offset, offset+len)`, issued at `now`.
    /// Returns the completion instant. Records the file-system-layer data
    /// movement into the cluster trace; the caller records the
    /// application-layer view. A fault-injected device error or outage
    /// surfaces as `Err`; no file-system record is emitted for the failed
    /// attempt (the middleware records retries).
    #[allow(clippy::too_many_arguments)]
    pub fn io<S: RecordSink>(
        &mut self,
        cluster: &mut Cluster<S>,
        pid: ProcessId,
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
        let lba = meta.base_lba[0] + offset / BLOCK_SIZE;
        let t0 = now + self.per_op_overhead;
        let done = cluster.local_io(self.server, lba, len, op, t0)?;
        cluster.record_fs_access(pid, file, offset, len, op, now, done);
        Ok(done)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::ClusterConfig;
    use bps_core::record::Layer;
    use bps_sim::device::{DeviceNode, DiskSched};
    use bps_sim::rng::Jitter;

    fn hdd_cluster() -> Cluster {
        let mut cfg = ClusterConfig::hdd_cluster(1, 1, 42);
        cfg.jitter = Jitter::NONE;
        Cluster::new(&cfg)
    }

    #[test]
    fn figure_7_anchor_4kb_sequential_hdd() {
        // Sequential 4 KB reads: per-op time ≈ overhead(120us) +
        // controller(60us) + transfer(43us) ≈ 223 us ⇒ IOPS ≈ 4500,
        // same order as the paper's 5156.
        let mut cluster = hdd_cluster();
        let mut fs = LocalFs::new(0);
        let f = fs.create(1 << 20);
        // First read pays the initial seek to the file's extent; measure
        // the steady state after it.
        let warm = fs
            .io(
                &mut cluster,
                ProcessId(0),
                f,
                0,
                4096,
                IoOp::Read,
                Nanos::ZERO,
            )
            .unwrap();
        let mut now = warm;
        let n = 64;
        for i in 1..=n {
            now = fs
                .io(
                    &mut cluster,
                    ProcessId(0),
                    f,
                    i * 4096,
                    4096,
                    IoOp::Read,
                    now,
                )
                .unwrap();
        }
        let per_op = now.since(warm).as_secs_f64() / n as f64;
        let iops = 1.0 / per_op;
        assert!((3500.0..6000.0).contains(&iops), "IOPS {iops}");
    }

    #[test]
    fn larger_records_much_faster_per_byte() {
        let mut cluster = hdd_cluster();
        let mut fs = LocalFs::new(0);
        let f = fs.create(64 << 20);
        // 4 MB in 4 KB records vs one 4 MB record.
        let mut now = Nanos::ZERO;
        for i in 0..1024u64 {
            now = fs
                .io(
                    &mut cluster,
                    ProcessId(0),
                    f,
                    i * 4096,
                    4096,
                    IoOp::Read,
                    now,
                )
                .unwrap();
        }
        let small_total = now.since(Nanos::ZERO);
        let mut cluster2 = hdd_cluster();
        let mut fs2 = LocalFs::new(0);
        let f2 = fs2.create(64 << 20);
        let big_done = fs2
            .io(
                &mut cluster2,
                ProcessId(0),
                f2,
                0,
                4 << 20,
                IoOp::Read,
                Nanos::ZERO,
            )
            .unwrap();
        let big_total = big_done.since(Nanos::ZERO);
        assert!(
            small_total.as_secs_f64() > 3.0 * big_total.as_secs_f64(),
            "small {small_total} vs big {big_total}"
        );
    }

    #[test]
    fn fs_layer_records_data_moved() {
        let mut cluster = hdd_cluster();
        let mut fs = LocalFs::new(0);
        let f = fs.create(1 << 20);
        fs.io(
            &mut cluster,
            ProcessId(0),
            f,
            0,
            8192,
            IoOp::Read,
            Nanos::ZERO,
        )
        .unwrap();
        let trace = &cluster.sink;
        assert_eq!(trace.layer(Layer::FileSystem).count(), 1);
        assert_eq!(trace.bytes(Layer::FileSystem), 8192);
    }

    #[test]
    fn files_get_disjoint_extents() {
        let mut fs = LocalFs::new(0);
        let a = fs.create(1 << 20);
        let b = fs.create(1 << 20);
        let ma = &fs.files[a.0 as usize];
        let mb = &fs.files[b.0 as usize];
        assert!(mb.base_lba[0] >= ma.base_lba[0] + (1 << 20) / BLOCK_SIZE);
    }

    #[test]
    fn read_past_eof_is_a_typed_error() {
        let mut cluster = hdd_cluster();
        let mut fs = LocalFs::new(0);
        let f = fs.create(4096);
        let err = fs
            .io(
                &mut cluster,
                ProcessId(0),
                f,
                0,
                8192,
                IoOp::Read,
                Nanos::ZERO,
            )
            .unwrap_err();
        assert!(
            matches!(err, IoError::BeyondEof { size: 4096, .. }),
            "{err}"
        );
    }

    /// An extent whose end overflows `u64` is past EOF, not a wrapped
    /// small end that passes the size check.
    #[test]
    fn overflowing_extent_is_beyond_eof() {
        let mut cluster = hdd_cluster();
        // No per-call overhead: the probe below reaches the disk at zero,
        // behind anything issued before it.
        let mut fs = LocalFs::new(0).with_overhead(Dur::ZERO);
        let f = fs.create(4096);
        let err = fs
            .io(
                &mut cluster,
                ProcessId(0),
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
        // Nothing reached the disk: no record, and the next read lands
        // exactly as on a fresh cluster's idle disk.
        assert!(cluster.sink.is_empty());
        let mut probe = |cluster: &mut Cluster| {
            fs.io(cluster, ProcessId(0), f, 0, 4096, IoOp::Read, Nanos::ZERO)
                .unwrap();
            std::mem::take(&mut cluster.sink).records().to_vec()
        };
        assert_eq!(probe(&mut cluster), probe(&mut hdd_cluster()));
    }

    #[test]
    fn ssd_beats_hdd_on_small_reads() {
        let mk = |device: DeviceNode| {
            let cfg = ClusterConfig {
                servers: 1,
                clients: 1,
                device,
                sched: DiskSched::Fifo,
                server_cpu: Dur::from_micros(25),
                jitter: Jitter::NONE,
                seed: 7,
                record_net_layer: false,
                fault: bps_sim::fault::FaultPlan::none(),
            };
            Cluster::new(&cfg)
        };
        let run = |cluster: &mut Cluster| {
            let mut fs = LocalFs::new(0);
            let f = fs.create(1 << 22);
            let mut now = Nanos::ZERO;
            for i in 0..256u64 {
                // Random-ish strided access pattern (stride breaks streaming).
                let off = (i * 37 % 1024) * 4096;
                now = fs
                    .io(cluster, ProcessId(0), f, off, 4096, IoOp::Read, now)
                    .unwrap();
            }
            now
        };
        let mut hdd = mk(DeviceNode::Hdd);
        let mut ssd = mk(DeviceNode::Ssd);
        let t_hdd = run(&mut hdd);
        let t_ssd = run(&mut ssd);
        assert!(
            t_ssd.since(Nanos::ZERO).as_secs_f64() * 5.0 < t_hdd.since(Nanos::ZERO).as_secs_f64(),
            "ssd {t_ssd} hdd {t_hdd}"
        );
    }
}
