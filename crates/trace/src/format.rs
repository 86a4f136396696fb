//! Trace persistence.
//!
//! Two formats:
//!
//! * **JSON** — the full [`IoRecord`] fidelity, human-readable, for
//!   interchange and debugging.
//! * **Binary** — the paper's 32-byte record: "the size of each record is
//!   32 bytes, even for 65535 I/O operations, all the records need about 3
//!   megabytes". Like the paper's record (process ID, I/O size in blocks,
//!   start, end), the compact form drops the byte offset; it keeps the
//!   file id and an op/layer flag byte in the remaining space.

use bps_core::block::{blocks_for_bytes, BLOCK_SIZE};
use bps_core::record::{FileId, IoOp, IoRecord, Layer, ProcessId};
use bps_core::time::Nanos;
use bps_core::trace::Trace;
use std::io::{self, Read};

/// Size of one binary record on disk.
pub const BINARY_RECORD_SIZE: usize = 32;

/// Magic header of the binary trace format.
const MAGIC: &[u8; 8] = b"BPSTRC01";

/// Serialize a trace to pretty JSON.
pub fn to_json(trace: &Trace) -> serde_json::Result<String> {
    serde_json::to_string_pretty(trace)
}

/// Deserialize a trace from JSON.
pub fn from_json(json: &str) -> serde_json::Result<Trace> {
    serde_json::from_str(json)
}

fn op_layer_flags(op: IoOp, layer: Layer) -> u8 {
    let op_bit = match op {
        IoOp::Read => 0u8,
        IoOp::Write => 1,
    };
    let layer_bits = match layer {
        Layer::Application => 0u8,
        Layer::FileSystem => 1,
        Layer::Device => 2,
        Layer::Retry => 3,
        // Network was added after the 2-bit encodings above shipped; it
        // takes the first 3-bit code so old traces decode unchanged.
        Layer::Network => 4,
    };
    op_bit | (layer_bits << 1)
}

/// The largest flag byte [`op_layer_flags`] writes: a write at layer code
/// 4. Codes 5 to 7 and bits 4 to 7 are unassigned.
const MAX_FLAGS: u8 = 0b1001;

/// The op and layer of a flag byte no greater than [`MAX_FLAGS`].
fn decode_flags(flags: u8) -> (IoOp, Layer) {
    let op = if flags & 1 == 0 {
        IoOp::Read
    } else {
        IoOp::Write
    };
    let layer = match (flags >> 1) & 0b111 {
        0 => Layer::Application,
        1 => Layer::FileSystem,
        2 => Layer::Device,
        3 => Layer::Retry,
        _ => Layer::Network,
    };
    (op, layer)
}

/// Encode a trace into the compact 32-byte-per-record binary format.
///
/// Layout per record (little-endian):
/// `pid: u32 | size_blocks: u32 | start: u64 | end: u64 | file: u32 |
/// flags: u8 | reserved: [u8; 3]`.
pub fn to_binary(trace: &Trace) -> Vec<u8> {
    let mut buf = Vec::with_capacity(16 + trace.len() * BINARY_RECORD_SIZE);
    buf.extend_from_slice(MAGIC);
    buf.extend_from_slice(&(trace.len() as u64).to_le_bytes());
    for r in trace.records() {
        buf.extend_from_slice(&r.pid.0.to_le_bytes());
        buf.extend_from_slice(&(blocks_for_bytes(r.bytes) as u32).to_le_bytes());
        buf.extend_from_slice(&r.start.0.to_le_bytes());
        buf.extend_from_slice(&r.end.0.to_le_bytes());
        buf.extend_from_slice(&r.file.0.to_le_bytes());
        buf.push(op_layer_flags(r.op, r.layer));
        buf.extend_from_slice(&[0u8; 3]);
    }
    buf
}

/// Records decoded per block: [`read_binary_file`] reads the body through
/// one reused buffer of this many records (128 KiB).
const DECODE_BLOCK: usize = 4096;

fn invalid(msg: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

/// The record count of a binary trace that starts with `head` and whose
/// body after the 16-byte header is `body_len` bytes long. The count is
/// checked against the body with checked arithmetic, so a lying header
/// cannot ask for a huge allocation.
fn record_count(head: &[u8], body_len: u64) -> io::Result<usize> {
    if head.len() < 16 || &head[..8] != MAGIC {
        return Err(invalid("not a BPS binary trace".into()));
    }
    let count = u64::from_le_bytes(head[8..16].try_into().expect("8 header bytes"));
    let expected = usize::try_from(count)
        .ok()
        .and_then(|c| c.checked_mul(BINARY_RECORD_SIZE))
        .ok_or_else(|| invalid(format!("record count {count} overflows the address space")))?;
    if body_len != expected as u64 {
        return Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            format!("expected {expected} record bytes, found {body_len}"),
        ));
    }
    Ok(expected / BINARY_RECORD_SIZE)
}

/// The one record decoder: blocks of whole records in, one exactly sized
/// trace out. The first inverted record and the first unassigned flag
/// byte are remembered and reported by [`Decoder::finish`], an inverted
/// record first, so the result does not depend on how the body was cut
/// into blocks.
struct Decoder {
    records: Vec<IoRecord>,
    /// Index of the first record that ends before it starts.
    inverted: Option<usize>,
    /// Index and flag byte of the first record whose flags name no op
    /// and layer.
    bad_flags: Option<(usize, u8)>,
}

impl Decoder {
    fn new(count: usize) -> Self {
        Decoder {
            records: Vec::with_capacity(count),
            inverted: None,
            bad_flags: None,
        }
    }

    /// Decode a block of whole records. Records are read at fixed offsets
    /// and appended in place; the error checks only set flags, which keeps
    /// the loop free of early exits, and a flagged block is searched again
    /// for the index.
    fn block(&mut self, body: &[u8]) {
        let at = self.records.len();
        let (mut inverted, mut bad_flags) = (false, false);
        self.records
            .extend(body.chunks_exact(BINARY_RECORD_SIZE).map(|rec| {
                let rec: &[u8; BINARY_RECORD_SIZE] = rec.try_into().expect("exact chunk");
                let u32_at =
                    |at: usize| u32::from_le_bytes(rec[at..at + 4].try_into().expect("4 bytes"));
                let u64_at =
                    |at: usize| u64::from_le_bytes(rec[at..at + 8].try_into().expect("8 bytes"));
                bad_flags |= rec[28] > MAX_FLAGS;
                let (op, layer) = decode_flags(rec[28]);
                let (start, end) = (Nanos(u64_at(8)), Nanos(u64_at(16)));
                inverted |= end < start;
                IoRecord {
                    pid: ProcessId(u32_at(0)),
                    op,
                    file: FileId(u32_at(24)),
                    offset: 0,
                    bytes: u64::from(u32_at(4)) * BLOCK_SIZE,
                    start,
                    end,
                    layer,
                }
            }));
        if inverted && self.inverted.is_none() {
            self.inverted = self.records[at..]
                .iter()
                .position(|r| r.end < r.start)
                .map(|i| at + i);
        }
        if bad_flags && self.bad_flags.is_none() {
            self.bad_flags = body
                .chunks_exact(BINARY_RECORD_SIZE)
                .map(|rec| rec[28])
                .enumerate()
                .find(|&(_, flags)| flags > MAX_FLAGS)
                .map(|(i, flags)| (at + i, flags));
        }
    }

    fn finish(self) -> io::Result<Trace> {
        if let Some(i) = self.inverted {
            return Err(invalid(format!("record {i} ends before it starts")));
        }
        if let Some((i, flags)) = self.bad_flags {
            return Err(invalid(format!(
                "record {i} has flag byte {flags:#04x}, which names no op and layer"
            )));
        }
        Ok(Trace::from_records(self.records))
    }
}

/// Decode the binary format. Byte sizes come back block-rounded (the
/// format stores block counts, as the paper's record does); offsets come
/// back as zero.
///
/// The header's record count is checked against the body length before
/// anything is allocated. A record that ends before it starts, or whose
/// flag byte names no op and layer, fails the whole trace, naming the
/// first such record.
pub fn from_binary(data: &[u8]) -> io::Result<Trace> {
    let body = data.get(16..).unwrap_or_default();
    let count = record_count(data, body.len() as u64)?;
    let mut decoder = Decoder::new(count);
    for block in body.chunks(DECODE_BLOCK * BINARY_RECORD_SIZE) {
        decoder.block(block);
    }
    decoder.finish()
}

/// Write a trace to a file in the binary format.
pub fn write_binary_file(trace: &Trace, path: &std::path::Path) -> io::Result<()> {
    std::fs::write(path, to_binary(trace))
}

/// Read a binary-format trace file: the same result as [`from_binary`] on
/// its bytes, without holding them. The header is checked against the
/// file's length, then the body streams through one reused 128 KiB buffer
/// into the exactly sized trace.
pub fn read_binary_file(path: &std::path::Path) -> io::Result<Trace> {
    let mut file = std::fs::File::open(path)?;
    let mut head = Vec::with_capacity(16);
    (&mut file).take(16).read_to_end(&mut head)?;
    let body_len = file.metadata()?.len().saturating_sub(16);
    let count = record_count(&head, body_len)?;
    let mut decoder = Decoder::new(count);
    let mut left = count * BINARY_RECORD_SIZE;
    let mut buf = vec![0u8; left.min(DECODE_BLOCK * BINARY_RECORD_SIZE)];
    while left > 0 {
        let block = &mut buf[..left.min(DECODE_BLOCK * BINARY_RECORD_SIZE)];
        file.read_exact(block)?;
        decoder.block(block);
        left -= block.len();
    }
    decoder.finish()
}

/// Load a trace by file extension: `.json` (lossless) or `.bpstrc`
/// (compact binary).
pub fn load_path(path: &std::path::Path) -> io::Result<Trace> {
    match path.extension().and_then(|e| e.to_str()) {
        Some("json") => {
            let text = std::fs::read_to_string(path)?;
            from_json(&text).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
        }
        Some("bpstrc") => read_binary_file(path),
        other => Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("unknown trace extension {other:?} (expected .json or .bpstrc)"),
        )),
    }
}

/// Store a trace by file extension: `.json` or `.bpstrc`.
pub fn store_path(trace: &Trace, path: &std::path::Path) -> io::Result<()> {
    match path.extension().and_then(|e| e.to_str()) {
        Some("json") => {
            let text = to_json(trace).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
            std::fs::write(path, text)
        }
        Some("bpstrc") => write_binary_file(trace, path),
        other => Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("unknown trace extension {other:?} (expected .json or .bpstrc)"),
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bps_core::metrics::{Bps, Metric};

    fn sample() -> Trace {
        let mut t = Trace::new();
        for pid in 0..3u32 {
            for i in 0..10u64 {
                t.push(IoRecord::new(
                    ProcessId(pid),
                    if i % 2 == 0 { IoOp::Read } else { IoOp::Write },
                    FileId(pid),
                    i * 4096,
                    4096,
                    Nanos::from_micros(i * 100),
                    Nanos::from_micros(i * 100 + 40),
                    if i % 3 == 0 {
                        Layer::FileSystem
                    } else {
                        Layer::Application
                    },
                ));
            }
        }
        t
    }

    #[test]
    fn json_roundtrip_is_lossless() {
        let t = sample();
        let json = to_json(&t).unwrap();
        let back = from_json(&json).unwrap();
        assert_eq!(t.records(), back.records());
    }

    #[test]
    fn binary_record_is_exactly_32_bytes() {
        let t = sample();
        let bin = to_binary(&t);
        assert_eq!(bin.len(), 16 + t.len() * BINARY_RECORD_SIZE);
        // The paper's overhead claim: 65535 ops ≈ 2 MiB + header.
        assert_eq!(65535 * BINARY_RECORD_SIZE, 2_097_120);
    }

    #[test]
    fn binary_roundtrip_preserves_bps() {
        // Offsets are dropped but everything BPS needs survives.
        let t = sample();
        let back = from_binary(&to_binary(&t)).unwrap();
        assert_eq!(back.len(), t.len());
        let a = Bps.compute(&t).unwrap();
        let b = Bps.compute(&back).unwrap();
        assert!((a - b).abs() < 1e-9);
        // Pids, ops, layers, times survive exactly.
        for (x, y) in t.records().iter().zip(back.records()) {
            assert_eq!(x.pid, y.pid);
            assert_eq!(x.op, y.op);
            assert_eq!(x.layer, y.layer);
            assert_eq!(x.start, y.start);
            assert_eq!(x.end, y.end);
            assert_eq!(x.file, y.file);
            assert_eq!(y.bytes % BLOCK_SIZE, 0);
        }
    }

    #[test]
    fn retry_layer_roundtrips() {
        let mut t = Trace::new();
        for (i, layer) in [
            Layer::Application,
            Layer::FileSystem,
            Layer::Device,
            Layer::Retry,
            Layer::Network,
        ]
        .into_iter()
        .enumerate()
        {
            t.push(IoRecord::new(
                ProcessId(0),
                IoOp::Read,
                FileId(0),
                0,
                4096,
                Nanos::from_micros(i as u64 * 10),
                Nanos::from_micros(i as u64 * 10 + 5),
                layer,
            ));
        }
        let back = from_binary(&to_binary(&t)).unwrap();
        for (x, y) in t.records().iter().zip(back.records()) {
            assert_eq!(x.layer, y.layer);
        }
        assert_eq!(back.records()[3].layer, Layer::Retry);
        assert_eq!(back.records()[4].layer, Layer::Network);
    }

    #[test]
    fn rejects_garbage() {
        assert!(from_binary(b"nonsense").is_err());
        assert!(from_binary(b"BPSTRC01").is_err());
        // Valid header, truncated body.
        let t = sample();
        let bin = to_binary(&t);
        assert!(from_binary(&bin[..bin.len() - 1]).is_err());
    }

    /// Layer codes 5 to 7 used to decode as `Retry`, which every metric
    /// drops, and bits 4 to 7 were ignored: both are corrupt records now.
    #[test]
    fn unassigned_flag_bytes_are_rejected() {
        let bin = to_binary(&sample());
        for flags in [5u8 << 1, (7 << 1) | 1, 0x10, 0x80 | 1, 0xff] {
            let mut bad = bin.clone();
            bad[16 + 3 * BINARY_RECORD_SIZE + 28] = flags;
            let err = from_binary(&bad).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData);
            assert!(err.to_string().contains("record 3 "), "{err}");
        }
        // Every assigned byte still decodes.
        for flags in 0..=MAX_FLAGS {
            let mut ok = bin.clone();
            ok[16 + 28] = flags;
            let t = from_binary(&ok).unwrap();
            assert_eq!(
                op_layer_flags(t.records()[0].op, t.records()[0].layer),
                flags
            );
        }
    }

    /// The first inverted record is named, and outranks an unassigned
    /// flag byte in an earlier block, whether the trace is decoded from
    /// memory or streamed from a file.
    #[test]
    fn inverted_records_are_named() {
        let n = DECODE_BLOCK + 10;
        let t = Trace::from_records(
            (0..n as u64)
                .map(|i| {
                    IoRecord::new(
                        ProcessId(0),
                        IoOp::Read,
                        FileId(0),
                        0,
                        4096,
                        Nanos(i * 10),
                        Nanos(i * 10 + 5),
                        Layer::Application,
                    )
                })
                .collect(),
        );
        let mut bin = to_binary(&t);
        let end_of = |i: usize| 16 + i * BINARY_RECORD_SIZE + 16;
        for i in [DECODE_BLOCK + 3, DECODE_BLOCK + 7] {
            bin[end_of(i)..end_of(i) + 8].copy_from_slice(&0u64.to_le_bytes());
        }
        bin[16 + 2 * BINARY_RECORD_SIZE + 28] = 0x0a;
        let path = std::env::temp_dir().join(format!("bps_inverted-{}.bpstrc", std::process::id()));
        std::fs::write(&path, &bin).unwrap();
        let streamed = read_binary_file(&path);
        std::fs::remove_file(&path).ok();
        for err in [from_binary(&bin).unwrap_err(), streamed.unwrap_err()] {
            assert_eq!(err.kind(), io::ErrorKind::InvalidData);
            let want = format!("record {} ends before it starts", DECODE_BLOCK + 3);
            assert_eq!(err.to_string(), want);
        }
    }

    #[test]
    fn overflowing_record_count_is_rejected() {
        // `count * 32` wraps to 0 for this count, which used to match the
        // empty body and panic on the first record read.
        let mut bin = MAGIC.to_vec();
        bin.extend_from_slice(&(1u64 << 59).to_le_bytes());
        let err = from_binary(&bin).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn file_roundtrip() {
        let dir = std::env::temp_dir().join("bps_trace_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("sample.bpstrc");
        let t = sample();
        write_binary_file(&t, &path).unwrap();
        let back = read_binary_file(&path).unwrap();
        assert_eq!(back.len(), t.len());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn load_store_by_extension() {
        let dir = std::env::temp_dir().join("bps_format_ext_test");
        std::fs::create_dir_all(&dir).unwrap();
        let t = sample();
        for name in ["a.json", "a.bpstrc"] {
            let p = dir.join(name);
            store_path(&t, &p).unwrap();
            let back = load_path(&p).unwrap();
            assert_eq!(back.len(), t.len(), "{name}");
            std::fs::remove_file(&p).ok();
        }
        assert!(store_path(&t, &dir.join("a.xyz")).is_err());
        assert!(load_path(&dir.join("a.xyz")).is_err());
    }

    #[test]
    fn empty_trace_roundtrips() {
        let t = Trace::new();
        let back = from_binary(&to_binary(&t)).unwrap();
        assert!(back.is_empty());
    }
}
