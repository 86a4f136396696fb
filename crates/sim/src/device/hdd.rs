//! Rotating-disk model.
//!
//! Matches the paper's testbed disk (250 GB, 7200 RPM SATA-II) in the
//! behaviours the experiments exercise:
//!
//! * **Sequential streaming** — a request starting where the previous one
//!   ended pays no positional cost, only transfer + controller overhead, so
//!   large-record sequential reads approach the sustained rate.
//! * **Positional costs** — any other request pays a seek (square-root
//!   distance law) plus rotational latency (uniform in one revolution,
//!   averaging half a period — §II: "the average latency is half of the
//!   rotational period").
//! * **Per-request overhead** — command processing dominates tiny requests,
//!   which is exactly what makes IOPS mislead in the paper's Figure 7.

use super::{DeviceModel, DeviceReq, DiskSched, ServiceCtx};
use crate::resource::ByteRate;
use bps_core::block::BLOCK_SIZE;
use bps_core::time::{Dur, NANOS_PER_SEC};

/// Parameter set for a rotating disk.
#[derive(Debug, Clone, PartialEq)]
pub struct HddProfile {
    /// Spindle speed, revolutions per minute.
    pub rpm: u32,
    /// Track-to-track (minimum nonzero) seek.
    pub track_to_track_seek: Dur,
    /// Full-stroke (maximum) seek.
    pub full_stroke_seek: Dur,
    /// Sustained media transfer rate, bytes/second.
    pub sustained_rate: u64,
    /// Fixed controller/command overhead per request.
    pub controller_overhead: Dur,
    /// Capacity in bytes.
    pub capacity: u64,
    /// Head movements shorter than this many blocks are "near" hops:
    /// the drive's look-ahead buffer and minimal actuator travel absorb
    /// most of the positional cost, so they pay only a track-to-track seek
    /// plus a quarter revolution instead of a full seek + uniform rotation.
    /// This is what lets a few interleaved sequential streams (the IOR
    /// shared-file pattern) keep reasonable throughput on one disk.
    pub near_seek_blocks: u64,
}

impl HddProfile {
    /// A 250 GB 7200 RPM SATA-II disk of the paper's era. The sustained
    /// rate is the *effective* rate observed through a local file system
    /// (calibrated against the paper's Figure 7 anchors: 16 GB sequential
    /// read in ~360 s at 64 KB records), not the platter's peak.
    pub fn sata_7200_250gb() -> Self {
        HddProfile {
            rpm: 7200,
            track_to_track_seek: Dur::from_micros(800),
            full_stroke_seek: Dur::from_millis(17),
            sustained_rate: 95_000_000,
            controller_overhead: Dur::from_micros(60),
            capacity: 250_000_000_000,
            near_seek_blocks: 32_768, // 16 MiB
        }
    }

    /// One full revolution.
    pub fn rotation_period(&self) -> Dur {
        Dur(60 * NANOS_PER_SEC / u64::from(self.rpm))
    }
}

/// A rotating disk with head-position state.
#[derive(Debug, Clone)]
pub struct Hdd {
    profile: HddProfile,
    /// The profile's sustained rate.
    rate: ByteRate,
    /// LBA one past the end of the last request (streaming detector).
    head_lba: u64,
}

impl Hdd {
    /// New disk with the head parked at LBA 0.
    pub fn new(profile: HddProfile) -> Self {
        Hdd {
            rate: ByteRate::new(profile.sustained_rate),
            profile,
            head_lba: 0,
        }
    }

    /// Seek time for a head movement of `distance` blocks: a square-root
    /// law anchored at the track-to-track and full-stroke points.
    fn seek_time(&self, distance: u64) -> Dur {
        if distance == 0 {
            return Dur::ZERO;
        }
        let cap_blocks = (self.profile.capacity / BLOCK_SIZE).max(1);
        let frac = (distance as f64 / cap_blocks as f64).min(1.0);
        let t2t = self.profile.track_to_track_seek.as_secs_f64();
        let full = self.profile.full_stroke_seek.as_secs_f64();
        Dur::from_secs_f64(t2t + (full - t2t) * frac.sqrt())
    }
}

impl DeviceModel for Hdd {
    fn name(&self) -> &'static str {
        "hdd"
    }

    fn service_time(&mut self, req: &DeviceReq, ctx: &mut ServiceCtx<'_>) -> Dur {
        let sequential = req.lba == self.head_lba;
        let distance = req.lba.abs_diff(self.head_lba);
        let positional = if sequential {
            Dur::ZERO
        } else if distance < self.profile.near_seek_blocks {
            // Near hop: streams interleaved in the same disk area.
            self.profile.track_to_track_seek + self.profile.rotation_period() / 4
        } else {
            let seek = self.seek_time(distance);
            // Rotational latency: uniform over one revolution.
            let rot =
                Dur::from_secs_f64(self.profile.rotation_period().as_secs_f64() * ctx.rng.unit());
            let raw = seek + rot;
            match ctx.sched {
                DiskSched::Elevator if ctx.queued => {
                    Dur::from_secs_f64(raw.as_secs_f64() * DiskSched::ELEVATOR_FACTOR)
                }
                _ => raw,
            }
        };
        self.head_lba = req.lba + req.blocks;
        positional + self.rate.price(req.bytes()) + self.profile.controller_overhead
    }

    fn capacity_blocks(&self) -> u64 {
        self.profile.capacity / BLOCK_SIZE
    }
}

/// Convenience: the head position is not exposed, but tests need a way to
/// observe streaming behaviour; the sequential detector is validated through
/// service times instead.
#[allow(dead_code)]
fn _doc_anchor() {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SimRng;
    use bps_core::record::IoOp;

    fn ctx<'a>(rng: &'a mut SimRng, queued: bool, sched: DiskSched) -> ServiceCtx<'a> {
        ServiceCtx { queued, sched, rng }
    }

    fn read(lba: u64, blocks: u64) -> DeviceReq {
        DeviceReq {
            lba,
            blocks,
            op: IoOp::Read,
        }
    }

    #[test]
    fn sequential_stream_has_no_positional_cost() {
        let mut hdd = Hdd::new(HddProfile::sata_7200_250gb());
        let mut rng = SimRng::seed_from_u64(1);
        // First request from LBA 0: head starts there, so it streams.
        let t1 = hdd.service_time(&read(0, 128), &mut ctx(&mut rng, false, DiskSched::Fifo));
        // Next contiguous request also streams.
        let t2 = hdd.service_time(&read(128, 128), &mut ctx(&mut rng, false, DiskSched::Fifo));
        let expected = Dur::from_secs_f64(128.0 * 512.0 / 95e6) + Dur::from_micros(60);
        assert_eq!(t1, expected);
        assert_eq!(t2, expected);
    }

    #[test]
    fn random_access_pays_seek_and_rotation() {
        let mut hdd = Hdd::new(HddProfile::sata_7200_250gb());
        let mut rng = SimRng::seed_from_u64(2);
        let far = hdd.capacity_blocks() / 2;
        let t = hdd.service_time(&read(far, 8), &mut ctx(&mut rng, false, DiskSched::Fifo));
        // Far seek: at least several milliseconds.
        assert!(t > Dur::from_millis(5), "{t}");
        // And bounded by full stroke + one rotation + transfer + overhead.
        assert!(t < Dur::from_millis(30), "{t}");
    }

    #[test]
    fn seek_time_monotone_in_distance() {
        let hdd = Hdd::new(HddProfile::sata_7200_250gb());
        let mut prev = Dur::ZERO;
        for d in [0u64, 1, 1000, 1_000_000, 100_000_000] {
            let s = hdd.seek_time(d);
            assert!(s >= prev, "seek({d}) = {s} < {prev}");
            prev = s;
        }
        assert_eq!(hdd.seek_time(0), Dur::ZERO);
        // Full stroke caps the law.
        let cap = hdd.capacity_blocks();
        assert!(hdd.seek_time(cap * 2) <= Dur::from_millis(18));
    }

    #[test]
    fn elevator_cuts_positional_cost_only_when_queued() {
        let profile = HddProfile::sata_7200_250gb();
        let far = 200_000_000;
        // Compare the same request/seed with and without queued elevator.
        let mut a = Hdd::new(profile.clone());
        let mut ra = SimRng::seed_from_u64(3);
        let t_fifo = a.service_time(&read(far, 8), &mut ctx(&mut ra, true, DiskSched::Fifo));
        let mut b = Hdd::new(profile.clone());
        let mut rb = SimRng::seed_from_u64(3);
        let t_elev = b.service_time(&read(far, 8), &mut ctx(&mut rb, true, DiskSched::Elevator));
        assert!(t_elev < t_fifo);
        // Not queued: elevator has nothing to reorder.
        let mut c = Hdd::new(profile);
        let mut rc = SimRng::seed_from_u64(3);
        let t_idle = c.service_time(&read(far, 8), &mut ctx(&mut rc, false, DiskSched::Elevator));
        assert_eq!(t_idle, t_fifo);
    }

    #[test]
    fn near_hop_cheaper_than_far_seek() {
        let mut hdd = Hdd::new(HddProfile::sata_7200_250gb());
        let mut rng = SimRng::seed_from_u64(6);
        // Position the head, then hop 8 MiB (near) vs half the disk (far).
        hdd.service_time(&read(0, 8), &mut ctx(&mut rng, false, DiskSched::Fifo));
        let near = hdd.service_time(&read(16_384, 8), &mut ctx(&mut rng, false, DiskSched::Fifo));
        let far_lba = hdd.capacity_blocks() / 2;
        let far = hdd.service_time(
            &read(far_lba, 8),
            &mut ctx(&mut rng, false, DiskSched::Fifo),
        );
        assert!(near < far, "near {near} far {far}");
        // Near hop: t2t (0.8 ms) + quarter rotation (~2.1 ms) + transfer.
        assert!(
            near > Dur::from_millis(2) && near < Dur::from_millis(4),
            "{near}"
        );
    }

    #[test]
    fn rotation_period_from_rpm() {
        let p = HddProfile::sata_7200_250gb();
        // 7200 RPM → 8.333 ms per revolution.
        assert_eq!(p.rotation_period(), Dur(8_333_333));
    }

    #[test]
    fn small_requests_dominated_by_overhead() {
        let mut hdd = Hdd::new(HddProfile::sata_7200_250gb());
        let mut rng = SimRng::seed_from_u64(4);
        // Sequential 4 KB: overhead (60 us) vs transfer (~43 us).
        let t = hdd.service_time(&read(0, 8), &mut ctx(&mut rng, false, DiskSched::Fifo));
        let transfer = Dur::from_secs_f64(4096.0 / 95e6);
        assert!(t >= Dur::from_micros(60) + transfer - Dur(10));
        assert!(t <= Dur::from_micros(60) + transfer + Dur(10));
    }

    #[test]
    fn head_position_advances() {
        let mut hdd = Hdd::new(HddProfile::sata_7200_250gb());
        let mut rng = SimRng::seed_from_u64(5);
        hdd.service_time(&read(0, 100), &mut ctx(&mut rng, false, DiskSched::Fifo));
        // A request at LBA 100 now streams (head is at 100).
        let t = hdd.service_time(&read(100, 100), &mut ctx(&mut rng, false, DiskSched::Fifo));
        let expected = Dur::from_secs_f64(100.0 * 512.0 / 95e6) + Dur::from_micros(60);
        assert_eq!(t, expected);
    }
}
