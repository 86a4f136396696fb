//! RAID-0 (striped) disk array.
//!
//! The paper's Set 1 varies storage "in number and in media"; a striped
//! array is the classic way to add *number*. The model approximates an
//! N-member stripe: a request's transfer is split across all members (so
//! the transfer term shrinks N-fold for large requests), every member
//! still pays its own positional + controller cost (so small requests gain
//! nothing), and the array accepts `N` concurrent requests (channel
//! parallelism across requests).

use super::hdd::HddProfile;
use super::{DeviceModel, DeviceReq, DiskSched, ServiceCtx};
use crate::resource::ByteRate;
use bps_core::block::BLOCK_SIZE;
use bps_core::time::Dur;

/// A RAID-0 array of identical rotating disks.
#[derive(Debug, Clone)]
pub struct Raid0 {
    member: HddProfile,
    members: usize,
    /// One member's sustained rate.
    rate: ByteRate,
    /// Array-level head position (members move together under striping).
    head_lba: u64,
}

impl Raid0 {
    /// An array of `members` identical disks.
    pub fn new(member: HddProfile, members: usize) -> Self {
        assert!(members >= 1, "an array needs at least one member");
        Raid0 {
            rate: ByteRate::new(member.sustained_rate),
            member,
            members,
            head_lba: 0,
        }
    }

    fn seek_time(&self, distance: u64) -> Dur {
        if distance == 0 {
            return Dur::ZERO;
        }
        let cap_blocks = (self.capacity_blocks()).max(1);
        let frac = (distance as f64 / cap_blocks as f64).min(1.0);
        let t2t = self.member.track_to_track_seek.as_secs_f64();
        let full = self.member.full_stroke_seek.as_secs_f64();
        Dur::from_secs_f64(t2t + (full - t2t) * frac.sqrt())
    }
}

impl DeviceModel for Raid0 {
    fn name(&self) -> &'static str {
        "raid0"
    }

    fn service_time(&mut self, req: &DeviceReq, ctx: &mut ServiceCtx<'_>) -> Dur {
        let sequential = req.lba == self.head_lba;
        let distance = req.lba.abs_diff(self.head_lba);
        let positional = if sequential {
            Dur::ZERO
        } else if distance < self.member.near_seek_blocks {
            self.member.track_to_track_seek + self.member.rotation_period() / 4
        } else {
            let seek = self.seek_time(distance);
            let rot =
                Dur::from_secs_f64(self.member.rotation_period().as_secs_f64() * ctx.rng.unit());
            let raw = seek + rot;
            match ctx.sched {
                DiskSched::Elevator if ctx.queued => {
                    Dur::from_secs_f64(raw.as_secs_f64() * DiskSched::ELEVATOR_FACTOR)
                }
                _ => raw,
            }
        };
        self.head_lba = req.lba + req.blocks;
        // Transfer is striped over all members; positional cost is paid in
        // parallel by the members, so it is counted once.
        let share = req.bytes().div_ceil(self.members as u64);
        let transfer = self.rate.price(share);
        positional + transfer + self.member.controller_overhead
    }

    fn channels(&self) -> usize {
        self.members
    }

    fn capacity_blocks(&self) -> u64 {
        self.member.capacity / BLOCK_SIZE * self.members as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::hdd::Hdd;
    use crate::rng::SimRng;
    use bps_core::record::IoOp;

    fn service<M: DeviceModel>(m: &mut M, lba: u64, blocks: u64, seed: u64) -> Dur {
        let mut rng = SimRng::seed_from_u64(seed);
        let mut ctx = ServiceCtx {
            queued: false,
            sched: DiskSched::Fifo,
            rng: &mut rng,
        };
        m.service_time(
            &DeviceReq {
                lba,
                blocks,
                op: IoOp::Read,
            },
            &mut ctx,
        )
    }

    #[test]
    fn large_sequential_scales_with_members() {
        let mut single = Hdd::new(HddProfile::sata_7200_250gb());
        let mut array = Raid0::new(HddProfile::sata_7200_250gb(), 4);
        // 8 MB sequential read from LBA 0.
        let t1 = service(&mut single, 0, 16_384, 1);
        let t4 = service(&mut array, 0, 16_384, 1);
        // Transfer dominates: array ~4x faster, minus the fixed overhead.
        assert!(t4.as_secs_f64() < t1.as_secs_f64() / 2.5, "{t1} vs {t4}");
    }

    #[test]
    fn small_requests_gain_nothing() {
        let mut single = Hdd::new(HddProfile::sata_7200_250gb());
        let mut array = Raid0::new(HddProfile::sata_7200_250gb(), 4);
        // 4 KB sequential: the fixed controller overhead dominates, so the
        // array's advantage shrinks from 4x to well under 2x.
        let t1 = service(&mut single, 0, 8, 2);
        let t4 = service(&mut array, 0, 8, 2);
        assert!(t4.as_secs_f64() > t1.as_secs_f64() * 0.55, "{t1} vs {t4}");
    }

    #[test]
    fn capacity_and_channels_scale() {
        let array = Raid0::new(HddProfile::sata_7200_250gb(), 3);
        let single = Hdd::new(HddProfile::sata_7200_250gb());
        assert_eq!(array.capacity_blocks(), single.capacity_blocks() * 3);
        assert_eq!(array.channels(), 3);
        assert_eq!(array.name(), "raid0");
    }

    #[test]
    fn positional_cost_counted_once() {
        let mut array = Raid0::new(HddProfile::sata_7200_250gb(), 8);
        let far = array.capacity_blocks() / 2;
        let t = service(&mut array, far, 8, 3);
        // One seek + rotation, not eight.
        assert!(t < Dur::from_millis(30), "{t}");
        assert!(t > Dur::from_millis(1), "{t}");
    }

    #[test]
    #[should_panic(expected = "at least one member")]
    fn empty_array_rejected() {
        let _ = Raid0::new(HddProfile::sata_7200_250gb(), 0);
    }
}
