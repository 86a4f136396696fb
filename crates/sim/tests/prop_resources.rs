//! Property tests for the analytic resources and device models.

use bps_core::record::IoOp;
use bps_core::time::{Dur, Nanos};
use bps_sim::device::hdd::{Hdd, HddProfile};
use bps_sim::device::ssd::{Ssd, SsdProfile};
use bps_sim::device::{DeviceModel, DeviceReq, DiskSched, ServiceCtx};
use bps_sim::resource::{ByteRate, FifoResource, MultiChannel};
use bps_sim::rng::{Jitter, SimRng};
use proptest::prelude::*;

/// Nondecreasing arrivals with service times.
fn arrivals() -> impl Strategy<Value = Vec<(u64, u64)>> {
    proptest::collection::vec((0u64..10_000, 1u64..5_000), 1..50).prop_map(|mut v| {
        // Make arrivals cumulative (nondecreasing).
        let mut t = 0;
        for (gap, _) in v.iter_mut() {
            t += *gap;
            *gap = t;
        }
        v
    })
}

proptest! {
    /// FIFO: service periods never overlap, never start before arrival,
    /// and each lasts exactly its service time.
    #[test]
    fn fifo_no_overlap(reqs in arrivals()) {
        let mut r = FifoResource::new();
        let mut prev_end = Nanos::ZERO;
        for &(arr, svc) in &reqs {
            let g = r.acquire(Nanos(arr * 1000), Dur(svc * 1000));
            prop_assert!(g.start >= Nanos(arr * 1000));
            prop_assert!(g.start >= prev_end);
            prop_assert_eq!(g.end - g.start, Dur(svc * 1000));
            prev_end = g.end;
        }
    }

    /// A k-channel resource is never slower than a 1-channel one and never
    /// faster than the sum of work divided by k allows.
    #[test]
    fn multichannel_dominates_fifo(reqs in arrivals(), k in 2usize..6) {
        let mut single = MultiChannel::new(1);
        let mut multi = MultiChannel::new(k);
        let mut single_end = Nanos::ZERO;
        let mut multi_end = Nanos::ZERO;
        for &(arr, svc) in &reqs {
            single_end = single_end.max(single.acquire(Nanos(arr * 1000), Dur(svc * 1000)).end);
            multi_end = multi_end.max(multi.acquire(Nanos(arr * 1000), Dur(svc * 1000)).end);
        }
        prop_assert!(multi_end <= single_end);
    }

    /// A k-channel resource is busy until its latest grant end, after
    /// every grant of any arrival sequence, and idle at zero before the
    /// first: the instant a device asks to decide whether a request
    /// queued.
    #[test]
    fn multichannel_busy_until_is_latest_grant_end(reqs in arrivals(), k in 1usize..6) {
        let mut m = MultiChannel::new(k);
        prop_assert_eq!(m.busy_until(), Nanos::ZERO);
        let mut latest = Nanos::ZERO;
        for &(arr, svc) in &reqs {
            latest = latest.max(m.acquire(Nanos(arr * 1000), Dur(svc * 1000)).end);
            prop_assert_eq!(m.busy_until(), latest);
        }
    }

    /// HDD service time is monotone in request size for sequential access
    /// and always positive.
    #[test]
    fn hdd_monotone_in_size(blocks_a in 1u64..10_000, blocks_b in 1u64..10_000) {
        let (small, large) = (blocks_a.min(blocks_b), blocks_a.max(blocks_b));
        prop_assume!(small != large);
        let mut rng = SimRng::seed_from_u64(1);
        let mut hdd = Hdd::new(HddProfile::sata_7200_250gb());
        let mut ctx = ServiceCtx { queued: false, sched: DiskSched::Fifo, rng: &mut rng };
        // Sequential from LBA 0 (head parked there).
        let t_small = hdd.service_time(
            &DeviceReq { lba: 0, blocks: small, op: IoOp::Read }, &mut ctx);
        let mut hdd2 = Hdd::new(HddProfile::sata_7200_250gb());
        let mut rng2 = SimRng::seed_from_u64(1);
        let mut ctx2 = ServiceCtx { queued: false, sched: DiskSched::Fifo, rng: &mut rng2 };
        let t_large = hdd2.service_time(
            &DeviceReq { lba: 0, blocks: large, op: IoOp::Read }, &mut ctx2);
        prop_assert!(t_small < t_large);
        prop_assert!(t_small > Dur::ZERO);
    }

    /// SSD service time is position-independent and linear in size.
    #[test]
    fn ssd_position_independent(lba_a in 0u64..100_000_000, lba_b in 0u64..100_000_000, blocks in 1u64..10_000) {
        let mut ssd = Ssd::new(SsdProfile::pcie_x4_100gb());
        let mut rng = SimRng::seed_from_u64(2);
        let mut ctx = ServiceCtx { queued: false, sched: DiskSched::Fifo, rng: &mut rng };
        let a = ssd.service_time(&DeviceReq { lba: lba_a, blocks, op: IoOp::Read }, &mut ctx);
        let b = ssd.service_time(&DeviceReq { lba: lba_b, blocks, op: IoOp::Read }, &mut ctx);
        prop_assert_eq!(a, b);
    }

    /// Every price a `ByteRate` quotes is `Dur::for_bytes` bit for bit.
    /// Sizes come from a small alphabet, so the two-entry memo hits,
    /// misses and evicts; the first price is of 0 bytes, its initial entry.
    #[test]
    fn byte_rate_price_is_exact(
        rate in prop_oneof![
            Just(117_000_000u64),
            Just(6_000_000_000),
            Just(95_000_000),
            Just(190_000_000),
            Just(10_000_000_000),
            1u64..100_000_000_000,
            1u64..=u64::MAX,
        ],
        alphabet in proptest::collection::vec(
            prop_oneof![0u64..(64 << 20), any::<u64>()], 1..=5),
        picks in proptest::collection::vec(any::<usize>(), 1..200),
    ) {
        let mut memo = ByteRate::new(rate);
        prop_assert_eq!(memo.price(0).0, Dur::for_bytes(0, rate).0);
        for pick in picks {
            let bytes = alphabet[pick % alphabet.len()];
            prop_assert_eq!(memo.price(bytes).0, Dur::for_bytes(bytes, rate).0, "{} B at {} B/s", bytes, rate);
        }
    }

    /// Log-normal jitter is positive, and sigma=0 is the identity.
    #[test]
    fn jitter_positive(nominal_us in 1u64..1_000_000, sigma in 0.0f64..0.5, seed in 0u64..1000) {
        let mut rng = SimRng::seed_from_u64(seed);
        let nominal = Dur::from_micros(nominal_us);
        let j = Jitter { sigma }.apply(nominal, &mut rng);
        prop_assert!(j > Dur::ZERO);
        if sigma == 0.0 {
            prop_assert_eq!(j, nominal);
        }
    }

    /// Same seed, same stream: the RNG is reproducible through forks.
    #[test]
    fn rng_fork_deterministic(seed in 0u64..10_000, salt in 0u64..10_000) {
        let mut a = SimRng::seed_from_u64(seed);
        let mut b = SimRng::seed_from_u64(seed);
        let mut fa = a.fork(salt);
        let mut fb = b.fork(salt);
        for _ in 0..16 {
            prop_assert_eq!(fa.unit().to_bits(), fb.unit().to_bits());
        }
    }
}
