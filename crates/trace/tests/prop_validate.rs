//! The one-pass `validate` produces the same findings, in the same order
//! and with the same text, as a naive reference that scans the trace once
//! per check and once per application process. Traces longer than a
//! replay block check the union `validate` folds behind the trace's own
//! watermark, mostly idle ones included.

use bps_core::record::{FileId, IoOp, IoRecord, Layer, ProcessId};
use bps_core::time::{Dur, Nanos};
use bps_core::trace::{Trace, REPLAY_BLOCK};
use bps_trace::validate::{validate, Finding, Severity};
use proptest::prelude::*;

/// The scan-per-check validator, as written before the one-pass rewrite.
fn reference(trace: &Trace) -> Vec<Finding> {
    let mut findings = Vec::new();
    if trace.is_empty() {
        findings.push(Finding {
            severity: Severity::Error,
            check: "empty",
            detail: "trace contains no records".into(),
        });
        return findings;
    }
    let zero = trace
        .records()
        .iter()
        .filter(|r| r.duration().is_zero())
        .count();
    if zero > 0 {
        let frac = zero as f64 / trace.len() as f64;
        findings.push(Finding {
            severity: if frac > 0.5 {
                Severity::Error
            } else {
                Severity::Warning
            },
            check: "zero-duration",
            detail: format!(
                "{zero} of {} records have zero duration ({:.0}% — clock too coarse?)",
                trace.len(),
                frac * 100.0
            ),
        });
    }
    let empty_io = trace.records().iter().filter(|r| r.bytes == 0).count();
    if empty_io > 0 {
        findings.push(Finding {
            severity: Severity::Warning,
            check: "zero-bytes",
            detail: format!("{empty_io} records moved zero bytes"),
        });
    }
    let pids: std::collections::BTreeSet<_> =
        trace.layer(Layer::Application).map(|r| r.pid).collect();
    for pid in pids {
        let mut intervals: Vec<_> = trace
            .layer(Layer::Application)
            .filter(|r| r.pid == pid)
            .map(|r| r.interval())
            .collect();
        intervals.sort_unstable_by_key(|iv| (iv.start, iv.end));
        let overlapping = intervals
            .windows(2)
            .filter(|w| w[1].start < w[0].end)
            .count();
        if overlapping > 0 {
            findings.push(Finding {
                severity: Severity::Warning,
                check: "intra-process-overlap",
                detail: format!(
                    "process {} has {overlapping} overlapping request pairs \
                     (multithreaded process, or clock skew between threads)",
                    pid.0
                ),
            });
        }
    }
    let app = trace.bytes(Layer::Application);
    let fs = trace.bytes(Layer::FileSystem);
    if fs > 0 && fs < app / 2 {
        findings.push(Finding {
            severity: Severity::Warning,
            check: "fs-underflow",
            detail: format!(
                "file system moved {fs} bytes but the application required {app} \
                 (cache hits, or missing FS-layer records)"
            ),
        });
    }
    let exec = trace.execution_time();
    let io = trace.overlapped_io_time(Layer::Application);
    if !exec.is_zero() && io < exec / 100 && exec > Dur::from_millis(1) {
        findings.push(Finding {
            severity: Severity::Warning,
            check: "mostly-idle",
            detail: format!(
                "only {io} of {exec} execution was I/O-active (<1%) — BPS will \
                 reflect the I/O bursts, not the run"
            ),
        });
    }
    findings
}

fn rendered(findings: &[Finding]) -> Vec<(Severity, String)> {
    findings
        .iter()
        .map(|f| (f.severity, f.to_string()))
        .collect()
}

/// One generated record: pid, layer pick, bytes, start, length. Lengths
/// and bytes are zero often; starts jump far apart sometimes, so some
/// traces are mostly idle.
type Raw = (u32, u8, u64, u64, u64);

fn raw_record() -> impl Strategy<Value = Raw> {
    (
        prop_oneof![0u32..4, 0u32..64, Just(u32::MAX)],
        0u8..8,
        prop_oneof![Just(0u64), 1u64..1 << 20],
        prop_oneof![0u64..2_000_000, 0u64..20_000_000_000],
        prop_oneof![Just(0u64), 1u64..500_000],
    )
}

/// A random multi-process trace in arbitrary (out-of-order) record order,
/// with an execution time recorded sometimes.
fn trace() -> impl Strategy<Value = Trace> {
    (
        proptest::collection::vec(raw_record(), 0..120),
        prop_oneof![Just(None), (0u64..100_000_000_000).prop_map(Some)],
    )
        .prop_map(|(raws, exec)| {
            let mut t = Trace::from_records(
                raws.into_iter()
                    .map(|(pid, pick, bytes, start, len)| {
                        let layer = match pick {
                            0..=4 => Layer::Application,
                            5 | 6 => Layer::FileSystem,
                            _ => Layer::Device,
                        };
                        IoRecord::new(
                            ProcessId(pid),
                            IoOp::Read,
                            FileId(0),
                            0,
                            bytes,
                            Nanos(start),
                            Nanos(start + len),
                            layer,
                        )
                    })
                    .collect(),
            );
            if let Some(ns) = exec {
                t.set_execution_time(Dur(ns));
            }
            t
        })
}

/// Per-process back-to-back chains, interleaved across processes and
/// stored in completion order, with thread-shared pids overlapping.
fn completion_ordered_trace() -> impl Strategy<Value = Trace> {
    proptest::collection::vec(
        proptest::collection::vec((0u64..50_000, 0u64..40_000, any::<bool>()), 1..60),
        1..6,
    )
    .prop_map(|procs| {
        let mut records = Vec::new();
        for (pid, ops) in procs.into_iter().enumerate() {
            let mut t = 0u64;
            for (gap, len, overlap) in ops {
                t = if overlap && pid % 2 == 1 {
                    t.saturating_sub(gap)
                } else {
                    t + gap
                };
                records.push(IoRecord::app_read(
                    ProcessId(pid as u32),
                    FileId(0),
                    0,
                    len % 4096,
                    Nanos(t),
                    Nanos(t + len),
                ));
                t += len;
            }
        }
        records.sort_by_key(|r| r.end);
        Trace::from_records(records)
    })
}

/// Bursts of back-to-back requests from six processes, in completion
/// order, over one to three replay blocks, so the union `validate` folds
/// forgets behind watermarks mid-trace. One in four records is a
/// file-system record. Bursts are `idle` nanoseconds apart; with the
/// longest gaps, or an execution time far past the span, the trace is
/// mostly idle. A straggler, when present, is an application record of
/// process 0 that starts first and is stored last: every watermark waits
/// for it, every other application record arrives behind watermarks that
/// late, and process 0 arrives out of order and overlapping.
fn long_trace() -> impl Strategy<Value = Trace> {
    (
        REPLAY_BLOCK - 8..3 * REPLAY_BLOCK + 100,
        any::<u64>(),
        prop_oneof![Just(1_000u64), Just(10_000_000), Just(1_000_000_000)],
        any::<bool>(),
        prop_oneof![Just(None), (50u64..200).prop_map(Some)],
    )
        .prop_map(|(n, seed, idle, straggler, exec_factor)| {
            let mut x = seed | 1;
            let mut clock = [idle; 6];
            let mut records: Vec<IoRecord> = (0..n)
                .map(|i| {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    let p = (x % 6) as usize;
                    if i % 500 == 499 {
                        let burst = clock.iter().max().copied().unwrap_or(0) + idle;
                        clock = [burst; 6];
                    }
                    let start = clock[p] + (x >> 8) % 2_000;
                    let end = start + (x >> 24) % 20_000;
                    clock[p] = end;
                    let layer = if x.is_multiple_of(4) {
                        Layer::FileSystem
                    } else {
                        Layer::Application
                    };
                    let bytes = (x >> 40) % 8 * 512;
                    let pid = ProcessId(p as u32);
                    IoRecord::new(
                        pid,
                        IoOp::Read,
                        FileId(0),
                        0,
                        bytes,
                        Nanos(start),
                        Nanos(end),
                        layer,
                    )
                })
                .collect();
            records.sort_by_key(|r| r.end);
            if straggler {
                let end = records.last().map_or(Nanos(1), |r| r.end);
                records.push(IoRecord::app_read(
                    ProcessId(0),
                    FileId(0),
                    0,
                    512,
                    Nanos(0),
                    end,
                ));
            }
            let mut t = Trace::from_records(records);
            if let Some(k) = exec_factor {
                let span = t.execution_time();
                t.set_execution_time(span * k);
            }
            t
        })
}

#[test]
fn fixed_cases_match_reference() {
    let rec = |pid: u32, s: u64, e: u64| {
        IoRecord::app_read(ProcessId(pid), FileId(0), 0, 512, Nanos(s), Nanos(e))
    };
    let mut idle = Trace::from_records(vec![rec(0, 0, 10)]);
    idle.set_execution_time(Dur::from_millis(10_000));
    // Exactly 1 ms of execution is not long enough to be mostly idle.
    let mut short = Trace::from_records(vec![rec(0, 0, 10)]);
    short.set_execution_time(Dur::from_millis(1));
    let cases = [
        Trace::new(),
        Trace::from_records(vec![rec(0, 5, 5), rec(0, 9, 9)]),
        Trace::from_records(vec![rec(1, 50, 150), rec(0, 0, 100), rec(1, 0, 100)]),
        idle,
        short,
    ];
    for t in &cases {
        assert_eq!(rendered(&validate(t)), rendered(&reference(t)));
    }
}

proptest! {
    #[test]
    fn one_pass_matches_reference(t in trace()) {
        prop_assert_eq!(rendered(&validate(&t)), rendered(&reference(&t)));
    }

    #[test]
    fn one_pass_matches_reference_in_completion_order(t in completion_ordered_trace()) {
        prop_assert_eq!(rendered(&validate(&t)), rendered(&reference(&t)));
    }

    #[test]
    fn one_pass_matches_reference_behind_watermarks(t in long_trace()) {
        prop_assert_eq!(rendered(&validate(&t)), rendered(&reference(&t)));
    }
}
