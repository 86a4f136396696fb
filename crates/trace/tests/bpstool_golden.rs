//! Golden tests for the `bpstool` binary.
//!
//! A seeded trace with several processes, out-of-order completions,
//! per-process overlaps, zero-byte and zero-duration records is written as
//! `.bpstrc`, and the stdout of `summary`, `validate`, `timeline` and
//! `processes` is pinned byte for byte against `tests/golden/bpstool-*.txt`.

use bps_core::record::{FileId, IoOp, IoRecord, Layer, ProcessId};
use bps_core::time::Nanos;
use bps_core::trace::Trace;
use std::path::{Path, PathBuf};
use std::process::Command;

/// xorshift64: a fixed generator so the trace is the same on every host.
struct Rng(u64);

impl Rng {
    fn below(&mut self, n: u64) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0 % n
    }
}

/// Six processes issuing reads and writes with think-time gaps. Processes 1
/// and 4 sometimes issue before their previous request completed (a
/// thread-shared pid); every twentieth request moves zero bytes and every
/// seventeenth completes instantly. Half the application requests have an
/// FS-layer record below them. Records are stored in completion order.
fn seeded_trace() -> Trace {
    let mut rng = Rng(0x2545_F491_4F6C_DD1D);
    let mut records = Vec::new();
    for pid in 0..6u32 {
        let mut t = 1_000 * u64::from(pid);
        for i in 0..40u64 {
            let overlap = (pid == 1 || pid == 4) && rng.below(4) == 0;
            if overlap {
                t = t.saturating_sub(rng.below(300_000));
            } else {
                t += rng.below(20_000_000);
            }
            let len = if i % 17 == 3 {
                0
            } else {
                50_000 + rng.below(4_000_000)
            };
            let bytes = if i % 20 == 7 {
                0
            } else {
                512 * (1 + rng.below(256))
            };
            let op = if rng.below(3) == 0 {
                IoOp::Write
            } else {
                IoOp::Read
            };
            let (start, end) = (Nanos(t), Nanos(t + len));
            records.push(IoRecord::new(
                ProcessId(pid),
                op,
                FileId(pid % 2),
                0,
                bytes,
                start,
                end,
                Layer::Application,
            ));
            if i % 2 == 0 {
                records.push(IoRecord::new(
                    ProcessId(pid),
                    op,
                    FileId(pid % 2),
                    0,
                    bytes * 2,
                    start,
                    end,
                    Layer::FileSystem,
                ));
            }
            t += len;
        }
    }
    records.sort_by_key(|r| r.end);
    Trace::from_records(records)
}

fn golden(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join(format!("tests/golden/bpstool-{name}.txt"))
}

fn bpstool(args: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_bpstool"))
        .args(args)
        .output()
        .expect("spawn bpstool");
    assert!(
        out.status.success(),
        "bpstool {args:?} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("utf-8 stdout")
}

#[test]
fn bpstool_output_matches_goldens() {
    let dir = std::env::temp_dir().join(format!("bpstool_golden-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("seeded.bpstrc");
    bps_trace::format::store_path(&seeded_trace(), &path).unwrap();
    let file = path.to_str().unwrap();
    for cmd in ["summary", "validate", "timeline", "processes"] {
        let got = bpstool(&[cmd, file]);
        let want_path = golden(cmd);
        let want = std::fs::read_to_string(&want_path)
            .unwrap_or_else(|e| panic!("read {}: {e}", want_path.display()));
        assert_eq!(got, want, "bpstool {cmd} drifted from its golden");
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// A reader that goes away early ends `bpstool` quietly (SIGPIPE's
/// default action), not with a panic on the failed write (exit 101).
#[test]
fn closed_stdout_is_not_a_panic() {
    let dir = std::env::temp_dir().join(format!("bpstool_pipe-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("seeded.bpstrc");
    bps_trace::format::store_path(&seeded_trace(), &path).unwrap();
    let mut child = Command::new(env!("CARGO_BIN_EXE_bpstool"))
        .args(["timeline", path.to_str().unwrap(), "1"])
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::piped())
        .spawn()
        .expect("spawn bpstool");
    drop(child.stdout.take());
    let out = child.wait_with_output().expect("wait for bpstool");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert_ne!(out.status.code(), Some(101), "{stderr}");
    std::fs::remove_dir_all(&dir).ok();
}

/// A zero window and one past `u64` nanoseconds are usage errors: exit 2
/// with a `bpstool:` message, not a panic.
#[test]
fn timeline_rejects_unusable_windows() {
    let dir = std::env::temp_dir().join(format!("bpstool_window-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("seeded.bpstrc");
    bps_trace::format::store_path(&seeded_trace(), &path).unwrap();
    let file = path.to_str().unwrap();
    for window in ["0", "18446744073710"] {
        let out = Command::new(env!("CARGO_BIN_EXE_bpstool"))
            .args(["timeline", file, window])
            .output()
            .expect("spawn bpstool");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "window {window}: {stderr}");
        assert!(stderr.starts_with("bpstool: "), "window {window}: {stderr}");
        assert!(!stderr.contains("panicked"), "window {window}: {stderr}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// `--metrics` with no names is a usage error (exit 2), not a silent
/// fallback to the paper's four metrics.
#[test]
fn empty_metrics_list_is_a_usage_error() {
    let dir = std::env::temp_dir().join(format!("bpstool_metrics-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("seeded.bpstrc");
    bps_trace::format::store_path(&seeded_trace(), &path).unwrap();
    for list in ["", " , "] {
        let out = Command::new(env!("CARGO_BIN_EXE_bpstool"))
            .args(["summary", path.to_str().unwrap(), "--metrics", list])
            .output()
            .expect("spawn bpstool");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "--metrics {list:?}: {stderr}");
        assert_eq!(
            stderr,
            "bpstool: --metrics wants a comma-separated list of metric names\n"
        );
        assert!(out.stdout.is_empty());
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// A trace one record long but 10^18 ns wide is valid, yet the default
/// 100 ms window would cut it into 10^10 windows. `timeline` refuses with
/// exit 2 and names the smallest window that fits, instead of aborting on
/// the allocation.
#[test]
fn timeline_rejects_a_series_too_long_to_hold() {
    let dir = std::env::temp_dir().join(format!("bpstool_long-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("long.bpstrc");
    let trace = Trace::from_records(vec![IoRecord::new(
        ProcessId(0),
        IoOp::Read,
        FileId(0),
        0,
        4096,
        Nanos(0),
        Nanos(1_000_000_000_000_000_000),
        Layer::Application,
    )]);
    bps_trace::format::store_path(&trace, &path).unwrap();
    assert_eq!(std::fs::metadata(&path).unwrap().len(), 48);
    let file = path.to_str().unwrap();
    assert!(bpstool(&["validate", file]).starts_with("clean"));
    let out = Command::new(env!("CARGO_BIN_EXE_bpstool"))
        .args(["timeline", file])
        .output()
        .expect("spawn bpstool");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert_eq!(
        stderr,
        "bpstool: 100 ms windows cut this trace into 10000000000 windows, more than 1000000; \
         use a window of at least 1000000 ms\n"
    );
    assert!(out.stdout.is_empty());
    std::fs::remove_dir_all(&dir).ok();
}

/// A JSON trace whose one record ends before it starts (start 5000 ns,
/// end 1000 ns) is refused with exit 2 and the binary decoder's message,
/// by every command that loads it, instead of being summarized with a
/// wrapped duration or validated as clean.
#[test]
fn inverted_json_record_is_refused() {
    let dir = std::env::temp_dir().join(format!("bpstool_inverted-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("inverted.json");
    let mut record = IoRecord::app_read(ProcessId(0), FileId(0), 0, 4096, Nanos(0), Nanos(0));
    (record.start, record.end) = (Nanos(5_000), Nanos(1_000));
    let json = bps_trace::format::to_json(&Trace::from_records(vec![record])).unwrap();
    std::fs::write(&path, json).unwrap();
    let file = path.to_str().unwrap();
    for cmd in ["summary", "validate", "timeline", "processes"] {
        let out = Command::new(env!("CARGO_BIN_EXE_bpstool"))
            .args([cmd, file])
            .output()
            .expect("spawn bpstool");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{cmd}: {stderr}");
        assert_eq!(stderr, "bpstool: record 0 ends before it starts\n", "{cmd}");
        assert!(out.stdout.is_empty(), "{cmd}");
    }
    std::fs::remove_dir_all(&dir).ok();
}
