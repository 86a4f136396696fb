//! The trace readers never panic: arbitrary bytes, truncated valid files
//! and bit-flipped valid files all end in `Ok` or an `io::Error`.

use bps_core::record::{FileId, IoOp, IoRecord, Layer, ProcessId};
use bps_core::time::Nanos;
use bps_core::trace::Trace;
use bps_trace::format::{from_binary, load_path, to_binary, to_json, BINARY_RECORD_SIZE};
use proptest::prelude::*;
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

/// Nesting far past the JSON parser's depth limit is an error, not a
/// stack overflow.
#[test]
fn deeply_nested_json_is_an_error() {
    let path = scratch("deep", "json");
    std::fs::write(&path, "[".repeat(1_000_000)).unwrap();
    assert!(load_path(&path).is_err());
    std::fs::remove_file(&path).ok();
}
