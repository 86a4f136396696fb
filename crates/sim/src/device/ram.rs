//! A trivial constant-cost device: `fixed + bytes/rate` per request. The
//! fs tests use it as a test double, and a cluster or a scenario's
//! `Device` node selects it as `DeviceNode::Ram`.

use super::{DeviceModel, DeviceReq, ServiceCtx};
use crate::resource::ByteRate;
use bps_core::block::BLOCK_SIZE;
use bps_core::time::Dur;

/// A device serving every request with `fixed + bytes/rate`.
#[derive(Debug, Clone)]
pub struct Ram {
    fixed: Dur,
    rate: ByteRate,
    capacity: u64,
}

impl Ram {
    /// Build with a fixed per-op latency, a transfer rate in bytes/second,
    /// and a capacity in bytes.
    pub fn new(fixed: Dur, rate: u64, capacity: u64) -> Self {
        assert!(rate > 0, "transfer rate must be positive");
        Ram {
            fixed,
            rate: ByteRate::new(rate),
            capacity,
        }
    }
}

impl DeviceModel for Ram {
    fn name(&self) -> &'static str {
        "ram"
    }

    fn service_time(&mut self, req: &DeviceReq, _ctx: &mut ServiceCtx<'_>) -> Dur {
        self.fixed + self.rate.price(req.bytes())
    }

    fn capacity_blocks(&self) -> u64 {
        self.capacity / BLOCK_SIZE
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::DiskSched;
    use crate::rng::SimRng;
    use bps_core::record::IoOp;

    #[test]
    fn linear_in_bytes() {
        let mut ram = Ram::new(Dur::from_micros(1), 1_000_000_000, 1 << 30);
        let mut rng = SimRng::seed_from_u64(0);
        let mut ctx = ServiceCtx {
            queued: false,
            sched: DiskSched::Fifo,
            rng: &mut rng,
        };
        let small = ram.service_time(
            &DeviceReq {
                lba: 0,
                blocks: 2,
                op: IoOp::Read,
            },
            &mut ctx,
        );
        let big = ram.service_time(
            &DeviceReq {
                lba: 0,
                blocks: 2048,
                op: IoOp::Read,
            },
            &mut ctx,
        );
        assert!(big > small);
        // 1 MiB at 1 GB/s ≈ 1049 us + 1 us fixed.
        assert!((big.as_secs_f64() - 0.00105).abs() < 5e-5);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_rate_rejected() {
        let _ = Ram::new(Dur::ZERO, 0, 1);
    }
}
