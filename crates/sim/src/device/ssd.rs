//! Solid-state-disk model.
//!
//! Matches the paper's PCI-E X4 100 GB SSD in the behaviours the
//! experiments exercise: no positional costs at all, a small fixed per-op
//! latency (flash read + controller), read/write asymmetry, and internal
//! channel parallelism that lets concurrent requests proceed together.
//! Calibrated against the paper's Figure 8 anchors (ARPT 0.14 ms at 4 KB,
//! 22.35 ms at 4 MB ⇒ ~190 MB/s effective streaming).

use super::{DeviceModel, DeviceReq, ServiceCtx};
use crate::resource::ByteRate;
use bps_core::block::BLOCK_SIZE;
use bps_core::record::IoOp;
use bps_core::time::Dur;

/// Parameter set for a flash SSD.
#[derive(Debug, Clone, PartialEq)]
pub struct SsdProfile {
    /// Fixed latency for a read op (flash sense + controller).
    pub read_latency: Dur,
    /// Fixed latency for a write op (program is slower than sense).
    pub write_latency: Dur,
    /// Transfer rate per internal channel, bytes/second.
    pub channel_rate: u64,
    /// Number of internal channels.
    pub channels: usize,
    /// Capacity in bytes.
    pub capacity: u64,
}

impl SsdProfile {
    /// The paper's PCI-E X4 100 GB SSD (2009-era), calibrated to Figure 8.
    /// The paper's ARPT anchors are measured above the local file system
    /// (~120 µs per op): 4 KB ⇒ 0.14 ms total (≈ 50 µs device latency +
    /// 20 µs transfer + FS), 4 MB ⇒ 22.35 ms ⇒ ~190 MB/s effective rate.
    pub fn pcie_x4_100gb() -> Self {
        SsdProfile {
            read_latency: Dur::from_micros(50),
            write_latency: Dur::from_micros(110),
            channel_rate: 190_000_000,
            channels: 4,
            capacity: 100_000_000_000,
        }
    }
}

/// A flash SSD. Stateless between requests — no head, no rotation.
#[derive(Debug, Clone)]
pub struct Ssd {
    profile: SsdProfile,
    /// The profile's per-channel rate.
    rate: ByteRate,
}

impl Ssd {
    /// New SSD from a profile.
    pub fn new(profile: SsdProfile) -> Self {
        assert!(profile.channels >= 1, "SSD needs at least one channel");
        Ssd {
            rate: ByteRate::new(profile.channel_rate),
            profile,
        }
    }
}

impl DeviceModel for Ssd {
    fn name(&self) -> &'static str {
        "ssd"
    }

    fn service_time(&mut self, req: &DeviceReq, _ctx: &mut ServiceCtx<'_>) -> Dur {
        let latency = match req.op {
            IoOp::Read => self.profile.read_latency,
            IoOp::Write => self.profile.write_latency,
        };
        latency + self.rate.price(req.bytes())
    }

    fn channels(&self) -> usize {
        self.profile.channels
    }

    fn capacity_blocks(&self) -> u64 {
        self.profile.capacity / BLOCK_SIZE
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::DiskSched;
    use crate::rng::SimRng;

    fn service(ssd: &mut Ssd, req: DeviceReq) -> Dur {
        let mut rng = SimRng::seed_from_u64(0);
        let mut ctx = ServiceCtx {
            queued: false,
            sched: DiskSched::Fifo,
            rng: &mut rng,
        };
        ssd.service_time(&req, &mut ctx)
    }

    #[test]
    fn figure_8_anchor_4kb() {
        let mut ssd = Ssd::new(SsdProfile::pcie_x4_100gb());
        let t = service(
            &mut ssd,
            DeviceReq {
                lba: 0,
                blocks: 8,
                op: IoOp::Read,
            },
        );
        // Device-level share of the paper's 0.14 ms ARPT anchor (the rest
        // is the ~120 us local-FS overhead charged above the device).
        let secs = t.as_secs_f64();
        assert!((0.00005..0.00010).contains(&secs), "{secs}");
    }

    #[test]
    fn figure_8_anchor_4mb() {
        let mut ssd = Ssd::new(SsdProfile::pcie_x4_100gb());
        let t = service(
            &mut ssd,
            DeviceReq {
                lba: 0,
                blocks: 8192,
                op: IoOp::Read,
            },
        );
        // Paper: ARPT 0.02235 s at 4 MB.
        let secs = t.as_secs_f64();
        assert!((0.020..0.025).contains(&secs), "{secs}");
    }

    #[test]
    fn no_positional_penalty_for_random_access() {
        let mut ssd = Ssd::new(SsdProfile::pcie_x4_100gb());
        let near = service(
            &mut ssd,
            DeviceReq {
                lba: 0,
                blocks: 8,
                op: IoOp::Read,
            },
        );
        let far = service(
            &mut ssd,
            DeviceReq {
                lba: 150_000_000,
                blocks: 8,
                op: IoOp::Read,
            },
        );
        assert_eq!(near, far);
    }

    #[test]
    fn writes_slower_than_reads() {
        let mut ssd = Ssd::new(SsdProfile::pcie_x4_100gb());
        let r = service(
            &mut ssd,
            DeviceReq {
                lba: 0,
                blocks: 8,
                op: IoOp::Read,
            },
        );
        let w = service(
            &mut ssd,
            DeviceReq {
                lba: 0,
                blocks: 8,
                op: IoOp::Write,
            },
        );
        assert!(w > r);
    }

    #[test]
    fn reports_channels() {
        let ssd = Ssd::new(SsdProfile::pcie_x4_100gb());
        assert_eq!(ssd.channels(), 4);
        assert_eq!(ssd.capacity_blocks(), 100_000_000_000 / 512);
    }

    #[test]
    #[should_panic(expected = "at least one channel")]
    fn zero_channels_rejected() {
        let mut p = SsdProfile::pcie_x4_100gb();
        p.channels = 0;
        let _ = Ssd::new(p);
    }
}
