//! Counterexamples pinning what the paper's stored record assumes.

use bps_core::block::BLOCK_SIZE;
use bps_core::metrics::extended::IoEfficiency;
use bps_core::metrics::{Arpt, Bandwidth, Bps, Iops, Metric};
use bps_core::record::{FileId, IoOp, IoRecord, Layer, ProcessId};
use bps_core::time::Nanos;
use bps_core::trace::Trace;
use bps_trace::format::{from_binary, to_binary};

/// Four processes, each issuing ten 100-byte reads back to back; with
/// `fs_bytes`, each read has a file-system record of that size below it.
fn small_requests(fs_bytes: Option<u64>) -> Trace {
    let mut t = Trace::new();
    for pid in 0..4u32 {
        for i in 0..10u64 {
            let (start, end) = (
                Nanos((i * 50 + u64::from(pid) * 7) * 1_000),
                Nanos((i * 50 + u64::from(pid) * 7 + 40) * 1_000),
            );
            t.push(IoRecord::app_read(
                ProcessId(pid),
                FileId(0),
                0,
                100,
                start,
                end,
            ));
            if let Some(bytes) = fs_bytes {
                t.push(IoRecord::new(
                    ProcessId(pid),
                    IoOp::Read,
                    FileId(0),
                    0,
                    bytes,
                    start,
                    end,
                    Layer::FileSystem,
                ));
            }
        }
    }
    t
}

fn round_trip(t: &Trace) -> Trace {
    from_binary(&to_binary(t)).expect("round trip")
}

/// Paper §III.B: the 32-byte record stores the I/O size in blocks, and BPS
/// counts blocks ("all the I/O blocks issued from the application are
/// counted"). A request smaller than a block is therefore stored as one
/// whole 512-byte block. BPS, IOPS and ARPT never read bytes, so a binary
/// round trip leaves them bit-identical. The byte-based metrics do read
/// bytes, and they move.
#[test]
fn sub_block_requests_round_up_to_a_block() {
    let before = small_requests(Some(1024));
    let after = round_trip(&before);
    assert_eq!(after.bytes(Layer::Application), 40 * BLOCK_SIZE);
    assert_eq!(before.app_blocks(), after.app_blocks());

    // The block-based metrics are unchanged, bit for bit.
    for m in [&Bps as &dyn Metric, &Iops, &Arpt] {
        assert_eq!(
            m.compute(&before).map(f64::to_bits),
            m.compute(&after).map(f64::to_bits),
            "{}",
            m.name()
        );
    }

    // BW reads the FS layer here, whose 1024-byte records are whole
    // blocks: unchanged.
    assert_eq!(Bandwidth.compute(&before), Bandwidth.compute(&after));

    // IOEff compares required with moved bytes. The required side grows
    // from 100 to 512 bytes a request, so the efficiency is overstated by
    // 512/100: 100/1024 becomes 512/1024.
    let eff_before = IoEfficiency.compute(&before).unwrap();
    let eff_after = IoEfficiency.compute(&after).unwrap();
    assert_eq!(eff_before, 100.0 / 1024.0);
    assert_eq!(eff_after, 0.5);
}

/// Without an FS layer, BW falls back to the application's bytes, which
/// the round trip inflates by the same 512/100.
#[test]
fn sub_block_requests_inflate_fallback_bandwidth() {
    let before = small_requests(None);
    let after = round_trip(&before);
    let ratio = Bandwidth.compute(&after).unwrap() / Bandwidth.compute(&before).unwrap();
    assert!((ratio - 5.12).abs() < 1e-12, "{ratio}");
    assert_eq!(
        Bps.compute(&before).map(f64::to_bits),
        Bps.compute(&after).map(f64::to_bits)
    );
}
