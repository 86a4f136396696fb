//! The trace readers never panic: arbitrary bytes, truncated valid files
//! and bit-flipped valid files all end in `Ok` or an `io::Error`. The
//! streaming file reader returns exactly what `from_binary` returns on the
//! same bytes.

use bps_core::record::{FileId, IoOp, IoRecord, Layer, ProcessId};
use bps_core::time::Nanos;
use bps_core::trace::Trace;
use bps_trace::format::{from_binary, load_path, to_binary, to_json, BINARY_RECORD_SIZE};
use proptest::prelude::*;
use std::io;
use std::path::PathBuf;

/// A small valid trace over every layer and both ops.
fn valid_trace() -> impl Strategy<Value = Trace> {
    proptest::collection::vec(
        (
            0u32..4,
            0u64..1 << 20,
            0u64..1_000_000,
            0u64..10_000,
            0u8..10,
        ),
        0..24,
    )
    .prop_map(|recs| {
        let layers = [
            Layer::Application,
            Layer::FileSystem,
            Layer::Device,
            Layer::Retry,
            Layer::Network,
        ];
        Trace::from_records(
            recs.into_iter()
                .map(|(pid, bytes, start, len, kind)| {
                    IoRecord::new(
                        ProcessId(pid),
                        if kind % 2 == 0 {
                            IoOp::Read
                        } else {
                            IoOp::Write
                        },
                        FileId(pid),
                        0,
                        bytes,
                        Nanos(start),
                        Nanos(start + len),
                        layers[usize::from(kind / 2)],
                    )
                })
                .collect(),
        )
    })
}

/// Arbitrary bytes, sometimes behind a valid magic and a count that may
/// or may not match the body, including counts whose byte size overflows.
fn header_and_garbage() -> impl Strategy<Value = Vec<u8>> {
    (
        any::<bool>(),
        prop_oneof![
            any::<u64>(),
            0u64..8,
            Just(1u64 << 59),
            Just(u64::MAX / 32 + 1)
        ],
        proptest::collection::vec(any::<u8>(), 0..4 * BINARY_RECORD_SIZE),
    )
        .prop_map(|(magic, count, body)| {
            if !magic {
                return body;
            }
            let mut bytes = b"BPSTRC01".to_vec();
            bytes.extend_from_slice(&count.to_le_bytes());
            bytes.extend_from_slice(&body);
            bytes
        })
}

/// A scratch file for one case; the name is unique per process and case.
fn scratch(tag: &str, ext: &str) -> PathBuf {
    use std::sync::atomic::{AtomicU64, Ordering};
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!("bps_prop_reader-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(format!(
        "{tag}-{}.{ext}",
        NEXT.fetch_add(1, Ordering::Relaxed)
    ))
}

/// Load `bytes` from a file with each extension; any result but a panic
/// is acceptable.
fn load_as_files(bytes: &[u8]) {
    for ext in ["bpstrc", "json"] {
        let path = scratch("case", ext);
        std::fs::write(&path, bytes).unwrap();
        let _ = load_path(&path);
        std::fs::remove_file(&path).ok();
    }
}

proptest! {
    #[test]
    fn arbitrary_bytes_never_panic(bytes in header_and_garbage()) {
        let _ = from_binary(&bytes);
        load_as_files(&bytes);
    }

    #[test]
    fn truncated_files_never_panic(trace in valid_trace(), cut in any::<usize>()) {
        let bin = to_binary(&trace);
        prop_assert!(from_binary(&bin).is_ok());
        let cut = cut % bin.len();
        prop_assert!(from_binary(&bin[..cut]).is_err());
        load_as_files(&bin[..cut]);
        let json = to_json(&trace).unwrap().into_bytes();
        load_as_files(&json[..cut.min(json.len())]);
    }

    #[test]
    fn bit_flipped_files_never_panic(
        trace in valid_trace(),
        flips in proptest::collection::vec((any::<usize>(), 0u8..8), 1..4),
    ) {
        for mut bytes in [to_binary(&trace), to_json(&trace).unwrap().into_bytes()] {
            let len = bytes.len();
            for (at, bit) in &flips {
                bytes[at % len] ^= 1 << bit;
            }
            let _ = from_binary(&bytes);
            load_as_files(&bytes);
        }
    }
}

proptest! {
    /// A flag byte with layer code 5 to 7 or any of bits 4 to 7 set makes
    /// a valid file corrupt: `InvalidData`, naming the first such record.
    #[test]
    fn unassigned_flag_bytes_are_invalid_data(
        trace in valid_trace(),
        at in any::<usize>(),
        flags in prop_oneof![10u8..16, 16u8..=255],
    ) {
        prop_assume!(!trace.is_empty());
        let mut bin = to_binary(&trace);
        let i = at % trace.len();
        bin[16 + i * BINARY_RECORD_SIZE + 28] = flags;
        let err = from_binary(&bin).unwrap_err();
        prop_assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        let named = format!("record {i} ");
        prop_assert!(err.to_string().contains(&named), "{}", err);
    }
}

/// Records the file reader decodes per read: one 128 KiB block.
const READ_BLOCK: usize = 4096;

/// A valid binary trace of `n` records drawn from `seed`: every layer,
/// both ops, each record ending at or after its start.
fn generated_file(n: usize, seed: u64) -> Vec<u8> {
    let mut x = seed | 1;
    let mut next = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    let layers = [
        Layer::Application,
        Layer::FileSystem,
        Layer::Device,
        Layer::Retry,
        Layer::Network,
    ];
    let records = (0..n)
        .map(|_| {
            let (r, start) = (next(), next() % (1 << 40));
            IoRecord::new(
                ProcessId((r % 16) as u32),
                if r & 1 == 0 { IoOp::Read } else { IoOp::Write },
                FileId((r >> 8) as u32 % 4),
                0,
                (r >> 16) % (1 << 20),
                Nanos(start),
                Nanos(start + (r >> 40) % 100_000),
                layers[(r >> 4) as usize % layers.len()],
            )
        })
        .collect();
    to_binary(&Trace::from_records(records))
}

/// Record counts around the read block: bodies shorter than one block,
/// exactly one, just either side of it, two, and more than one but not
/// a multiple.
fn record_count() -> impl Strategy<Value = usize> {
    prop_oneof![
        0usize..24,
        READ_BLOCK - 3..READ_BLOCK + 3,
        Just(READ_BLOCK),
        Just(2 * READ_BLOCK),
        READ_BLOCK + 1..2 * READ_BLOCK + 900,
    ]
}

/// One change to a valid file; positions are taken modulo its length or
/// record count.
#[derive(Debug, Clone)]
enum Damage {
    /// Keep only this many leading bytes.
    Truncate(usize),
    /// Flip these bits.
    Flip(Vec<(usize, u8)>),
    /// Add this to the header's record count, wrapping.
    CountBy(i64),
    /// Replace the header's record count.
    Count(u64),
    /// Make a record end one nanosecond before it starts.
    Invert(usize),
    /// Give a record this flag byte.
    Flags(usize, u8),
}

fn damage() -> impl Strategy<Value = Damage> {
    prop_oneof![
        any::<usize>().prop_map(Damage::Truncate),
        proptest::collection::vec((any::<usize>(), 0u8..8), 1..4).prop_map(Damage::Flip),
        prop_oneof![-3i64..0, 1i64..4].prop_map(Damage::CountBy),
        prop_oneof![
            any::<u64>(),
            Just(1u64 << 59),
            Just(u64::MAX / 32 + 1),
            Just(u64::MAX)
        ]
        .prop_map(Damage::Count),
        any::<usize>().prop_map(Damage::Invert),
        (any::<usize>(), any::<u8>()).prop_map(|(at, flags)| Damage::Flags(at, flags)),
    ]
}

fn apply(bytes: &mut Vec<u8>, damage: &Damage) {
    let records = bytes.len().saturating_sub(16) / BINARY_RECORD_SIZE;
    if bytes.len() < 16 {
        // Too short for a header: every change below is to a header or
        // a record.
        return;
    }
    let header_count = |bytes: &mut Vec<u8>, count: u64| {
        bytes[8..16].copy_from_slice(&count.to_le_bytes());
    };
    match *damage {
        Damage::Truncate(keep) => bytes.truncate(keep % (bytes.len() + 1)),
        Damage::Flip(ref flips) => {
            let len = bytes.len();
            for (at, bit) in flips {
                bytes[at % len] ^= 1 << bit;
            }
        }
        Damage::CountBy(by) => {
            let count = u64::from_le_bytes(bytes[8..16].try_into().unwrap());
            header_count(bytes, count.wrapping_add_signed(by));
        }
        Damage::Count(count) => header_count(bytes, count),
        Damage::Invert(at) if records > 0 => {
            let rec = 16 + at % records * BINARY_RECORD_SIZE;
            let end = u64::from_le_bytes(bytes[rec + 16..rec + 24].try_into().unwrap());
            bytes[rec + 8..rec + 16].copy_from_slice(&end.wrapping_add(1).to_le_bytes());
        }
        Damage::Flags(at, flags) if records > 0 => {
            bytes[16 + at % records * BINARY_RECORD_SIZE + 28] = flags;
        }
        Damage::Invert(_) | Damage::Flags(..) => {}
    }
}

/// Equal records, or the same error kind and message.
fn same_outcome(streamed: io::Result<Trace>, decoded: io::Result<Trace>) {
    match (streamed, decoded) {
        (Ok(a), Ok(b)) => assert_eq!(a.records(), b.records()),
        (Err(a), Err(b)) => {
            assert_eq!((a.kind(), a.to_string()), (b.kind(), b.to_string()));
        }
        (a, b) => panic!(
            "load_path gave {:?}, from_binary {:?}",
            a.map(|t| t.len()),
            b.map(|t| t.len())
        ),
    }
}

proptest! {
    /// Any bytes written as a `.bpstrc` file load exactly as `from_binary`
    /// decodes them: valid files of every size around the read block, and
    /// the same files truncated, bit-flipped, with a lying header count,
    /// with inverted records or with unassigned flag bytes, in any
    /// combination.
    #[test]
    fn load_path_equals_from_binary(
        n in record_count(),
        seed in any::<u64>(),
        damages in proptest::collection::vec(damage(), 0..3),
    ) {
        let mut bytes = generated_file(n, seed);
        for d in &damages {
            apply(&mut bytes, d);
        }
        let path = scratch("stream", "bpstrc");
        std::fs::write(&path, &bytes).unwrap();
        let streamed = load_path(&path);
        std::fs::remove_file(&path).ok();
        same_outcome(streamed, from_binary(&bytes));
    }
}

/// Nesting far past the JSON parser's depth limit is an error, not a
/// stack overflow.
#[test]
fn deeply_nested_json_is_an_error() {
    let path = scratch("deep", "json");
    std::fs::write(&path, "[".repeat(1_000_000)).unwrap();
    assert!(load_path(&path).is_err());
    std::fs::remove_file(&path).ok();
}
