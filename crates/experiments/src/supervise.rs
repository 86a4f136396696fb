//! Supervised unit execution: failure taxonomy, per-unit deadlines, and
//! the failure-budget circuit breaker.
//!
//! A sweep is `cases × seeds` independent units, and every scenario run
//! executes them through [`run_supervised`]:
//!
//! * every unit failure is classified into a [`FailureKind`]
//!   (`Panic | Timeout | InvalidSpec | Io`) and carried as a
//!   [`UnitFailure`] through the sweep report, the CC "why n/a" rows,
//!   and the `reproduce` exit code;
//! * units run on
//!   [`SweepExec::run_indexed`](crate::sweep::SweepExec::run_indexed)'s
//!   scoped work-stealing pool, with or without a deadline;
//! * with a per-unit wall-clock deadline, the pool worker runs its unit
//!   on a thread of its own and waits at most the deadline for it: a unit
//!   that overruns is marked `Timeout` and *detached* (its thread is never
//!   joined) while the worker claims the next unit, so one pathological
//!   case degrades the sweep instead of hanging it;
//! * a `--max-failures N` budget aborts the whole run once more than
//!   `N` units have failed;
//! * a SIGINT sets [`request_interrupt`]; workers notice between units
//!   and stop claiming, and once the in-flight units finish (or time out)
//!   the run exits with the journal flushed and the exact `resume`
//!   command printed.
//!
//! The budget and the interrupt are checked once, after the pool
//! returns, on every path. The deadline, the budget and the journal are
//! fields of the [`RunOpts`] the engine passes to [`run_supervised`]. Two
//! pieces of state stay process-wide: the interrupt flag, because a
//! signal handler can reach nothing else, and the failure ledger
//! ([`record_failures`] / [`take_recorded_failures`]), which is how the
//! CLI and the benchmark learn, at the end of a run that spanned many
//! figures, which failure classes occurred — each class maps to a
//! distinct documented exit code.

use crate::journal::Journal;
use crate::runner::UnitValues;
use crate::scenario::engine::RunOpts;
use crate::sweep::SweepExec;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Duration;

/// Why a `(case, seed)` unit failed to produce metrics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailureKind {
    /// The unit panicked (a poisoned workload, a tripped invariant).
    Panic,
    /// The unit overran its wall-clock deadline and was detached.
    Timeout,
    /// The unit's spec could not be built into a runnable workload.
    InvalidSpec,
    /// An I/O error (unreadable scenario file, unwritable output).
    Io,
}

impl FailureKind {
    /// Every failure kind, in exit-code order — the registry the generated
    /// failure/exit-code reference page renders from.
    pub const ALL: [FailureKind; 4] = [
        FailureKind::InvalidSpec,
        FailureKind::Io,
        FailureKind::Panic,
        FailureKind::Timeout,
    ];

    /// One-line description for the generated reference page.
    pub fn describe(self) -> &'static str {
        match self {
            FailureKind::Panic => "the unit panicked (a poisoned workload, a tripped invariant)",
            FailureKind::Timeout => "the unit overran its wall-clock deadline and was detached",
            FailureKind::InvalidSpec => {
                "the unit's spec could not be built into a runnable workload"
            }
            FailureKind::Io => "an I/O error (unreadable scenario file, unwritable output)",
        }
    }

    /// Stable lowercase name used in reports, CSV annotations, and the
    /// journal.
    pub fn name(self) -> &'static str {
        match self {
            FailureKind::Panic => "panic",
            FailureKind::Timeout => "timeout",
            FailureKind::InvalidSpec => "invalid-spec",
            FailureKind::Io => "io",
        }
    }

    /// The `reproduce` exit code for this class of failure (documented in
    /// the CLI usage text): invalid-spec 3, io 4, panic 5, timeout 6.
    pub fn exit_code(self) -> i32 {
        match self {
            FailureKind::InvalidSpec => 3,
            FailureKind::Io => 4,
            FailureKind::Panic => 5,
            FailureKind::Timeout => 6,
        }
    }

    /// Severity order for picking one representative kind out of a mixed
    /// set of failures: panic outranks timeout outranks invalid-spec
    /// outranks io.
    fn severity(self) -> u8 {
        match self {
            FailureKind::Panic => 3,
            FailureKind::Timeout => 2,
            FailureKind::InvalidSpec => 1,
            FailureKind::Io => 0,
        }
    }

    /// The most severe kind among `kinds` (`None` on an empty iterator).
    pub fn worst(kinds: impl IntoIterator<Item = FailureKind>) -> Option<FailureKind> {
        kinds.into_iter().max_by_key(|k| k.severity())
    }
}

impl std::fmt::Display for FailureKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// One `(case, seed)` unit that failed instead of producing metrics.
#[derive(Debug, Clone)]
pub struct UnitFailure {
    /// Failure class.
    pub kind: FailureKind,
    /// Label of the case the unit belonged to.
    pub case: String,
    /// The seed the unit was running.
    pub seed: u64,
    /// Human-readable detail: the panic payload, the deadline overrun,
    /// the build error.
    pub detail: String,
}

impl std::fmt::Display for UnitFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "case {} seed {} [{}]: {}",
            self.case, self.seed, self.kind, self.detail
        )
    }
}

/// Stringify a panic payload (`panic!` with a literal gives `&str`, with a
/// format string gives `String`; anything else is opaque).
pub fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

// ---------------------------------------------------------------------------
// Interrupt flag and failure ledger.
// ---------------------------------------------------------------------------

/// Set when the process received SIGINT/SIGTERM; checked between units.
/// The one piece of run state a signal handler can reach, so it stays
/// process-wide.
static INTERRUPTED: AtomicBool = AtomicBool::new(false);

/// Mark the process interrupted (called from the SIGINT handler; an
/// atomic store is async-signal-safe). The supervisor notices between
/// units and shuts the run down with the journal flushed.
pub fn request_interrupt() {
    INTERRUPTED.store(true, Ordering::Relaxed);
}

/// Whether an interrupt has been requested.
pub fn interrupted() -> bool {
    INTERRUPTED.load(Ordering::Relaxed)
}

fn ledger() -> &'static Mutex<Vec<UnitFailure>> {
    static LEDGER: OnceLock<Mutex<Vec<UnitFailure>>> = OnceLock::new();
    LEDGER.get_or_init(Default::default)
}

/// Append unit failures to the process-wide ledger the CLI drains at the
/// end of a run to pick its exit code.
pub fn record_failures(failures: impl IntoIterator<Item = UnitFailure>) {
    ledger()
        .lock()
        .expect("failure ledger poisoned")
        .extend(failures);
}

/// Drain the failure ledger.
pub fn take_recorded_failures() -> Vec<UnitFailure> {
    std::mem::take(&mut *ledger().lock().expect("failure ledger poisoned"))
}

/// Exit because the run was interrupted: the journal is already flushed
/// (every unit line is written and flushed as it completes), so all that
/// remains is to tell the user how to pick the run back up.
fn exit_interrupted(journal: Option<&Path>) -> ! {
    eprintln!("interrupted: journal flushed; completed units are safe");
    if let Some(path) = journal {
        eprintln!("resume with: reproduce resume {}", path.display());
    }
    std::process::exit(130);
}

/// Exit because the failure budget was exceeded.
fn exit_budget(failed: usize, budget: usize, journal: Option<&Path>) -> ! {
    eprintln!("error: failure budget exceeded: {failed} unit failure(s) > --max-failures {budget}");
    if let Some(path) = journal {
        eprintln!(
            "completed units are journaled; resume with: reproduce resume {}",
            path.display()
        );
    }
    std::process::exit(7);
}

// ---------------------------------------------------------------------------
// Test-only failure injection.
// ---------------------------------------------------------------------------

/// Deterministic failure injection for tests and CI, keyed by case label:
/// `BPS_TEST_UNIT_PANIC=<substr>` panics every unit whose case label
/// contains `<substr>`; `BPS_TEST_UNIT_STALL=<substr>:<ms>` makes matching
/// units sleep `<ms>` milliseconds first (an empty `<substr>` matches every
/// unit). Unset in normal operation; simulated results are never altered,
/// only delayed or aborted.
pub fn apply_test_hooks(label: &str) {
    if let Ok(spec) = std::env::var("BPS_TEST_UNIT_PANIC") {
        if label.contains(&spec) {
            panic!("BPS_TEST_UNIT_PANIC injected panic for case `{label}`");
        }
    }
    if let Ok(spec) = std::env::var("BPS_TEST_UNIT_STALL") {
        if let Some((substr, ms)) = spec.rsplit_once(':') {
            if let Ok(ms) = ms.parse::<u64>() {
                if label.contains(substr) {
                    std::thread::sleep(Duration::from_millis(ms));
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// The supervised executor.
// ---------------------------------------------------------------------------

/// The work of one unit: produce its captured metric values or a
/// classified failure. `'static` + `Send + Sync` so a wedged unit can be
/// detached without tearing down borrowed state.
pub type UnitWork = Arc<dyn Fn() -> Result<UnitValues, (FailureKind, String)> + Send + Sync>;

/// One schedulable `(case, seed)` unit.
#[derive(Clone)]
pub struct UnitTask {
    /// Case label, for failure reports.
    pub label: String,
    /// The seed this unit runs.
    pub seed: u64,
    /// Journal key (empty when the run is not journaled).
    pub key: String,
    /// The unit's work.
    pub work: UnitWork,
}

/// Outcome of one supervised unit.
#[derive(Debug, Clone)]
pub enum UnitOutcome {
    /// The unit completed; its captured per-seed values.
    Done(UnitValues),
    /// The unit failed.
    Failed(FailureKind, String),
}

/// Run one unit to its outcome, isolating a panic, and journal it if it
/// completed. The journal line is written before the outcome is handed
/// back, so "all units done" implies "all units journaled" — a kill can
/// lose at most in-flight units.
fn run_unit(task: &UnitTask, journal: Option<&Journal>) -> UnitOutcome {
    let started = bps_telemetry::now();
    let out = match catch_unwind(AssertUnwindSafe(|| (task.work)())) {
        Ok(Ok(values)) => UnitOutcome::Done(values),
        Ok(Err((kind, detail))) => UnitOutcome::Failed(kind, detail),
        Err(payload) => UnitOutcome::Failed(FailureKind::Panic, panic_message(payload)),
    };
    if bps_telemetry::enabled() {
        bps_telemetry::unit(&task.label, task.seed, started);
        bps_telemetry::incr(bps_telemetry::Counter::SweepUnits);
        if matches!(out, UnitOutcome::Failed(..)) {
            bps_telemetry::incr(bps_telemetry::Counter::SweepFailures);
        }
    }
    if let (UnitOutcome::Done(values), Some(journal)) = (&out, journal) {
        journal.record(&task.key, &task.label, task.seed, values);
    }
    out
}

/// Run one unit on its own thread and wait at most `deadline` for it. An
/// overrunning unit is marked [`FailureKind::Timeout`] and its thread is
/// detached, never joined, so the pool worker moves on to the next unit;
/// a late result is still journaled (harmless — the journal is
/// content-keyed) but the run's outcome stays `Timeout`.
fn run_unit_with_deadline(
    task: &UnitTask,
    journal: Option<&Arc<Journal>>,
    deadline: Duration,
) -> UnitOutcome {
    let (tx, rx) = mpsc::channel();
    let (task, journal) = (task.clone(), journal.cloned());
    std::thread::spawn(move || {
        let _ = tx.send(run_unit(&task, journal.as_deref()));
    });
    match rx.recv_timeout(deadline) {
        Ok(outcome) => outcome,
        Err(RecvTimeoutError::Timeout) => UnitOutcome::Failed(
            FailureKind::Timeout,
            format!("exceeded per-unit deadline of {} ms", deadline.as_millis()),
        ),
        Err(RecvTimeoutError::Disconnected) => UnitOutcome::Failed(
            FailureKind::Panic,
            "unit thread ended without an outcome".to_string(),
        ),
    }
}

/// Execute `tasks` under supervision on `exec`'s pool
/// ([`SweepExec::run_indexed`]) and return one outcome per task, in task
/// order; workers claim tasks from a shared counter, so the set of
/// executed units is identical at any thread count. Completed units are
/// recorded to `opts.journal`. With `opts.deadline`, each unit runs on
/// its own thread and one that overruns is marked
/// [`FailureKind::Timeout`] and detached. Each worker checks the
/// interrupt flag and `opts.max_failures` before claiming a unit and
/// skips the rest once either trips; after the pool returns, the process
/// exits — with the journal flushed and the resume command printed — if
/// the run was interrupted or more than `max_failures` units failed.
pub fn run_supervised(tasks: Vec<UnitTask>, exec: SweepExec, opts: &RunOpts) -> Vec<UnitOutcome> {
    let journal = opts.journal.as_ref();
    let failed = AtomicUsize::new(0);
    let over_budget = || {
        opts.max_failures
            .is_some_and(|b| failed.load(Ordering::Relaxed) > b)
    };
    let outcomes = exec.run_indexed(tasks.len(), |i| {
        if interrupted() || over_budget() {
            return None;
        }
        let outcome = match opts.deadline {
            None => run_unit(&tasks[i], journal.map(Arc::as_ref)),
            Some(deadline) => run_unit_with_deadline(&tasks[i], journal, deadline),
        };
        if matches!(outcome, UnitOutcome::Failed(..)) {
            failed.fetch_add(1, Ordering::Relaxed);
        }
        Some(outcome)
    });
    let journal = journal.map(|j| j.path());
    if interrupted() {
        exit_interrupted(journal);
    }
    if let Some(budget) = opts.max_failures {
        let failed = failed.load(Ordering::Relaxed);
        if failed > budget {
            exit_budget(failed, budget, journal);
        }
    }
    outcomes
        .into_iter()
        .map(|o| o.expect("no unit is skipped unless the run exits"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ok_task(label: &str, seed: u64, v: f64) -> UnitTask {
        UnitTask {
            label: label.to_string(),
            seed,
            key: String::new(),
            work: Arc::new(move || {
                Ok(UnitValues {
                    iops: Some(v),
                    bw: Some(v),
                    arpt: Some(v),
                    bps: Some(v),
                    exec_s: v,
                    extra: Vec::new(),
                })
            }),
        }
    }

    #[test]
    fn worst_kind_prefers_panic_then_timeout() {
        use FailureKind::*;
        assert_eq!(
            FailureKind::worst([Io, Timeout, InvalidSpec]),
            Some(Timeout)
        );
        assert_eq!(FailureKind::worst([Timeout, Panic]), Some(Panic));
        assert_eq!(FailureKind::worst([]), None);
    }

    #[test]
    fn exit_codes_are_distinct_and_documented() {
        use FailureKind::*;
        let codes: Vec<i32> = [Panic, Timeout, InvalidSpec, Io]
            .iter()
            .map(|k| k.exit_code())
            .collect();
        assert_eq!(codes, vec![5, 6, 3, 4]);
    }

    #[test]
    fn outcomes_come_back_in_task_order_at_any_thread_count() {
        // Through the bare pool and through the per-unit deadline wrapper.
        for deadline in [None, Some(Duration::from_secs(10))] {
            for threads in [1, 4] {
                let tasks: Vec<UnitTask> = (0..10)
                    .map(|i| ok_task(&format!("t{i}"), i, i as f64))
                    .collect();
                let opts = RunOpts {
                    deadline,
                    ..RunOpts::default()
                };
                let out = run_supervised(tasks, SweepExec::new(threads), &opts);
                assert_eq!(out.len(), 10);
                for (i, o) in out.iter().enumerate() {
                    match o {
                        UnitOutcome::Done(v) => assert_eq!(v.exec_s, i as f64),
                        other => panic!("unit {i} ({deadline:?}, {threads}t): {other:?}"),
                    }
                }
            }
        }
    }

    #[test]
    fn panicking_unit_is_classified_not_fatal() {
        let mut tasks = vec![ok_task("ok", 1, 1.0)];
        tasks.push(UnitTask {
            label: "bad".into(),
            seed: 2,
            key: String::new(),
            work: Arc::new(|| panic!("injected supervise panic")),
        });
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let out = run_supervised(tasks, SweepExec::new(2), &RunOpts::default());
        std::panic::set_hook(prev);
        assert!(matches!(out[0], UnitOutcome::Done(_)));
        match &out[1] {
            UnitOutcome::Failed(FailureKind::Panic, detail) => {
                assert!(detail.contains("injected supervise panic"), "{detail}");
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn overrunning_unit_times_out_instead_of_hanging() {
        let mut tasks = vec![ok_task("fast", 1, 1.0)];
        tasks.push(UnitTask {
            label: "stuck".into(),
            seed: 2,
            key: String::new(),
            work: Arc::new(|| {
                std::thread::sleep(Duration::from_secs(30));
                Ok(UnitValues {
                    iops: None,
                    bw: None,
                    arpt: None,
                    bps: None,
                    exec_s: 0.0,
                    extra: Vec::new(),
                })
            }),
        });
        tasks.push(ok_task("after", 3, 3.0));
        let started = std::time::Instant::now();
        let opts = RunOpts {
            deadline: Some(Duration::from_millis(80)),
            ..RunOpts::default()
        };
        let out = run_supervised(tasks, SweepExec::new(2), &opts);
        assert!(
            started.elapsed() < Duration::from_secs(10),
            "sweep hung on the stuck unit"
        );
        assert!(matches!(out[0], UnitOutcome::Done(_)));
        match &out[1] {
            UnitOutcome::Failed(FailureKind::Timeout, detail) => {
                assert!(detail.contains("deadline"), "{detail}");
            }
            other => panic!("{other:?}"),
        }
        // The unit behind the stuck one still ran: the worker that timed
        // the stuck unit out claimed it.
        assert!(matches!(out[2], UnitOutcome::Done(_)));
    }

    #[test]
    fn journal_records_every_completed_unit() {
        let path = std::env::temp_dir().join(format!(
            "bps_supervise_journal_{}.jsonl",
            std::process::id()
        ));
        let tasks: Vec<UnitTask> = (0..6)
            .map(|i| {
                let mut t = ok_task(&format!("t{i}"), i, i as f64);
                t.key = format!("k{i}");
                t
            })
            .collect();
        let opts = RunOpts {
            journal: Some(Arc::new(Journal::create(&path, &[]).unwrap())),
            ..RunOpts::default()
        };
        let out = run_supervised(tasks, SweepExec::new(3), &opts);
        assert_eq!(out.len(), 6);
        drop(opts);
        let (journal, _) = Journal::open_resume(&path).unwrap();
        assert_eq!(journal.replayed_units(), 6);
        for i in 0..6 {
            let values = journal.lookup(&format!("k{i}")).expect("unit journaled");
            assert_eq!(values.exec_s, i as f64);
        }
        std::fs::remove_file(&path).ok();
    }
}
