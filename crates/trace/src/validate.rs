//! Trace sanity checking.
//!
//! Traces arrive from instrumented applications, files on disk, and
//! simulations; before metrics are trusted, the toolkit can vet the data.
//! Every check returns findings rather than failing hard — a trace with
//! oddities is still analyzable, but the analyst should know.

use bps_core::interval::Interval;
use bps_core::record::{Layer, ProcessId};
use bps_core::time::Dur;
use bps_core::trace::Trace;
use serde::Serialize;
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::fmt;
use std::hash::{BuildHasherDefault, Hasher};

/// Severity of a finding.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum Severity {
    /// Suspicious but analyzable.
    Warning,
    /// The metrics computed from this trace are likely meaningless.
    Error,
}

/// One validation finding.
#[derive(Debug, Clone, Serialize)]
pub struct Finding {
    /// How bad it is.
    pub severity: Severity,
    /// Machine-readable check name.
    pub check: &'static str,
    /// Human-readable description.
    pub detail: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let tag = match self.severity {
            Severity::Warning => "warn",
            Severity::Error => "ERROR",
        };
        write!(f, "[{tag}] {}: {}", self.check, self.detail)
    }
}

/// Multiplicative hashing for the process-id map: the default SipHash
/// costs more than the rest of the per-record work, and process ids are
/// not adversarial keys.
#[derive(Default)]
struct PidHasher(u64);

impl Hasher for PidHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u32(u32::from(b));
        }
    }

    fn write_u32(&mut self, n: u32) {
        self.0 = (self.0.rotate_left(5) ^ u64::from(n)).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

type PidMap<V> = HashMap<ProcessId, V, BuildHasherDefault<PidHasher>>;

/// One process's application requests, checked for overlap as they
/// arrive.
struct ProcCheck {
    pid: ProcessId,
    /// The latest interval.
    last: Interval,
    /// True while the intervals have arrived in `(start, end)` order, so
    /// each overlapping pair of the sorted list is one of neighbours in
    /// arrival order.
    sorted: bool,
    /// Overlapping neighbour pairs, while `sorted`.
    overlapping: usize,
}

/// Validate a trace; returns all findings (empty = clean).
///
/// One pass over the records counts everything the checks need and
/// counts each process's overlapping requests against its previous one.
/// Only a process whose requests arrive out of order costs a second pass
/// that collects and sorts its intervals. The mostly-idle check takes the
/// union behind the trace's own watermark ([`Trace::overlapped_io_time`]).
pub fn validate(trace: &Trace) -> Vec<Finding> {
    let mut findings = Vec::new();

    if trace.is_empty() {
        findings.push(Finding {
            severity: Severity::Error,
            check: "empty",
            detail: "trace contains no records".into(),
        });
        return findings;
    }

    let (mut zero, mut empty_io, mut app, mut fs) = (0usize, 0usize, 0u64, 0u64);
    let mut procs: Vec<ProcCheck> = Vec::new();
    let mut slot_of: PidMap<usize> = HashMap::default();
    for r in trace.records() {
        zero += usize::from(r.start == r.end);
        empty_io += usize::from(r.bytes == 0);
        match r.layer {
            Layer::Application => app += r.bytes,
            Layer::FileSystem => {
                fs += r.bytes;
                continue;
            }
            _ => continue,
        }
        let iv = r.interval();
        match slot_of.entry(r.pid) {
            Entry::Occupied(slot) => {
                let p = &mut procs[*slot.get()];
                p.sorted &= iv >= p.last;
                p.overlapping += usize::from(iv.start < p.last.end);
                p.last = iv;
            }
            Entry::Vacant(slot) => {
                slot.insert(procs.len());
                procs.push(ProcCheck {
                    pid: r.pid,
                    last: iv,
                    sorted: true,
                    overlapping: 0,
                });
            }
        }
    }

    // Zero-duration records: legal, but many of them usually means the
    // clock resolution was too coarse for the I/O being measured.
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

    // Zero-byte records.
    if empty_io > 0 {
        findings.push(Finding {
            severity: Severity::Warning,
            check: "zero-bytes",
            detail: format!("{empty_io} records moved zero bytes"),
        });
    }

    // Per-process overlap at the application layer: a single-threaded
    // process cannot have two POSIX calls in flight; overlap suggests
    // thread-shared pids or broken timestamps. `Interval`'s order is
    // `(start, end)`. A process whose requests arrived out of that order
    // has its overlapping pairs counted again on its sorted intervals.
    recount_out_of_order(trace, &mut procs);
    procs.sort_unstable_by_key(|p| p.pid);
    for p in procs.iter().filter(|p| p.overlapping > 0) {
        findings.push(Finding {
            severity: Severity::Warning,
            check: "intra-process-overlap",
            detail: format!(
                "process {} has {} overlapping request pairs \
                 (multithreaded process, or clock skew between threads)",
                p.pid.0, p.overlapping
            ),
        });
    }

    // FS layer moving less than the app required is physically impossible
    // for reads without caching; flag when both layers are instrumented.
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

    // Giant idle fraction: execution dominated by non-I/O time is fine,
    // but worth surfacing since BPS excludes it by design. The union is
    // taken only when the execution is long enough to be flagged.
    let exec = trace.execution_time();
    if exec > Dur::from_millis(1) {
        let io = trace.overlapped_io_time(Layer::Application);
        if io < exec / 100 {
            findings.push(Finding {
                severity: Severity::Warning,
                check: "mostly-idle",
                detail: format!(
                    "only {io} of {exec} execution was I/O-active (<1%) — BPS will \
                     reflect the I/O bursts, not the run"
                ),
            });
        }
    }

    findings
}

/// Count the overlapping pairs of every process whose requests arrived out
/// of order on its sorted intervals, gathered in one more pass. The
/// stable sort merges the runs a nearly ordered arrival leaves.
fn recount_out_of_order(trace: &Trace, procs: &mut [ProcCheck]) {
    let mut lists: PidMap<Vec<Interval>> = procs
        .iter()
        .filter(|p| !p.sorted)
        .map(|p| (p.pid, Vec::new()))
        .collect();
    if lists.is_empty() {
        return;
    }
    for r in trace.layer(Layer::Application) {
        if let Some(list) = lists.get_mut(&r.pid) {
            list.push(r.interval());
        }
    }
    for p in procs.iter_mut().filter(|p| !p.sorted) {
        let intervals = lists.get_mut(&p.pid).expect("gathered above");
        intervals.sort();
        p.overlapping = intervals
            .windows(2)
            .filter(|w| w[1].start < w[0].end)
            .count();
    }
}

/// True when no [`Severity::Error`] findings exist.
pub fn is_usable(findings: &[Finding]) -> bool {
    findings.iter().all(|f| f.severity != Severity::Error)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bps_core::record::{FileId, IoOp, IoRecord};
    use bps_core::time::Nanos;

    fn rec(pid: u32, bytes: u64, s_us: u64, e_us: u64) -> IoRecord {
        IoRecord::app_read(
            ProcessId(pid),
            FileId(0),
            0,
            bytes,
            Nanos::from_micros(s_us),
            Nanos::from_micros(e_us),
        )
    }

    #[test]
    fn clean_trace_has_no_findings() {
        let t = Trace::from_records(vec![rec(0, 4096, 0, 100), rec(0, 4096, 100, 200)]);
        let f = validate(&t);
        assert!(f.is_empty(), "{f:?}");
        assert!(is_usable(&f));
    }

    #[test]
    fn empty_trace_is_an_error() {
        let f = validate(&Trace::new());
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].severity, Severity::Error);
        assert!(!is_usable(&f));
    }

    #[test]
    fn zero_duration_flagged_and_escalates() {
        // One of three: warning.
        let t = Trace::from_records(vec![
            rec(0, 512, 0, 0),
            rec(0, 512, 10, 20),
            rec(0, 512, 30, 40),
        ]);
        let f = validate(&t);
        assert!(f
            .iter()
            .any(|x| x.check == "zero-duration" && x.severity == Severity::Warning));
        // All of them: error.
        let t = Trace::from_records(vec![rec(0, 512, 5, 5), rec(0, 512, 9, 9)]);
        let f = validate(&t);
        assert!(f
            .iter()
            .any(|x| x.check == "zero-duration" && x.severity == Severity::Error));
        assert!(!is_usable(&f));
    }

    #[test]
    fn intra_process_overlap_flagged() {
        let t = Trace::from_records(vec![rec(0, 512, 0, 100), rec(0, 512, 50, 150)]);
        let f = validate(&t);
        assert!(f.iter().any(|x| x.check == "intra-process-overlap"));
        // Different processes overlapping is fine.
        let t = Trace::from_records(vec![rec(0, 512, 0, 100), rec(1, 512, 50, 150)]);
        assert!(validate(&t).is_empty());
    }

    #[test]
    fn fs_underflow_flagged() {
        use bps_core::record::Layer;
        let mut t = Trace::from_records(vec![rec(0, 1 << 20, 0, 100)]);
        t.push(IoRecord::new(
            ProcessId(0),
            IoOp::Read,
            FileId(0),
            0,
            1024, // far less than the app required
            Nanos::ZERO,
            Nanos::from_micros(100),
            Layer::FileSystem,
        ));
        let f = validate(&t);
        assert!(f.iter().any(|x| x.check == "fs-underflow"), "{f:?}");
    }

    #[test]
    fn mostly_idle_flagged() {
        let mut t = Trace::from_records(vec![rec(0, 512, 0, 10)]);
        t.set_execution_time(Dur::from_secs(10));
        let f = validate(&t);
        assert!(f.iter().any(|x| x.check == "mostly-idle"));
        assert!(is_usable(&f));
    }

    #[test]
    fn findings_render() {
        let f = validate(&Trace::new());
        assert!(format!("{}", f[0]).contains("ERROR"));
    }
}
