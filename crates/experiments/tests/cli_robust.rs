//! Integration tests for the supervised-run machinery of `reproduce`:
//! journaled checkpoint/resume (including a real SIGKILL mid-sweep),
//! per-unit deadlines, and the failure-class exit codes. Failure
//! injection uses the `BPS_TEST_UNIT_PANIC` / `BPS_TEST_UNIT_STALL`
//! hooks, which are inert unless set.

use bps_experiments::figures::summary;
use bps_experiments::persist::{seal, unseal};
use bps_experiments::scale::Scale;
use serde::Value;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};
use std::sync::atomic::{AtomicUsize, Ordering};

fn golden(name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join(format!("tests/golden/{name}.txt"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

/// The flags every run here starts with: single-threaded, and no
/// persistent store, since a cache hit would serve an injected-failure
/// unit before the hook fires. A test's own later `--threads` wins.
const HERMETIC: [&str; 3] = ["--threads", "1", "--no-cache"];

/// Spawn the binary with `args` after [`HERMETIC`], except for `resume`,
/// which must come first and takes its flags from the journal header.
fn reproduce(args: &[&str], envs: &[(&str, &str)]) -> Output {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_reproduce"));
    if args.first() != Some(&"resume") {
        cmd.args(HERMETIC);
    }
    cmd.args(args);
    for (k, v) in envs {
        cmd.env(k, v);
    }
    cmd.output().expect("spawn reproduce")
}

fn unique_journal() -> PathBuf {
    static N: AtomicUsize = AtomicUsize::new(0);
    std::env::temp_dir().join(format!(
        "bps_cli_robust_{}_{}.jsonl",
        std::process::id(),
        N.fetch_add(1, Ordering::Relaxed)
    ))
}

/// Set one field of a journal's header and reseal it, as another format
/// version or another build of `reproduce` would have written it.
fn reseal_header(journal: &Path, field: &str, value: Value) {
    let text = std::fs::read_to_string(journal).unwrap();
    let (header, units) = text.split_once('\n').unwrap();
    let Ok(Value::Object(mut fields)) = unseal(header.as_bytes()) else {
        panic!("journal header unseals to an object: {header}");
    };
    fields
        .iter_mut()
        .find(|(name, _)| name == field)
        .unwrap_or_else(|| panic!("journal header has no {field}: {header}"))
        .1 = value;
    std::fs::write(journal, format!("{}\n{units}", seal(fields))).unwrap();
}

#[test]
fn journaled_run_matches_golden_and_resume_replays_it() {
    let journal = unique_journal();
    let out = reproduce(
        &["fig4", "--tiny", "--journal", journal.to_str().unwrap()],
        &[],
    );
    assert_eq!(out.status.code(), Some(0));
    assert_eq!(String::from_utf8_lossy(&out.stdout), golden("fig4"));
    let lines = std::fs::read_to_string(&journal).unwrap();
    assert!(
        lines
            .lines()
            .filter(|l| l.contains("\"kind\":\"unit\""))
            .count()
            > 0,
        "journal recorded no units"
    );

    // Resume of a finished journal replays everything — same bytes, at a
    // different thread count.
    let out = reproduce(
        &["resume", journal.to_str().unwrap(), "--threads", "4"],
        &[],
    );
    assert_eq!(out.status.code(), Some(0));
    assert_eq!(String::from_utf8_lossy(&out.stdout), golden("fig4"));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("resuming from"), "{err}");
    std::fs::remove_file(&journal).ok();
}

#[test]
fn resume_reruns_a_unit_whose_line_has_a_flipped_digit() {
    let journal = unique_journal();
    let out = reproduce(
        &["fig4", "--tiny", "--journal", journal.to_str().unwrap()],
        &[],
    );
    assert_eq!(out.status.code(), Some(0));
    // Change one hex digit of the first hdd unit's BPS: the line still
    // parses, so only its checksum can tell.
    let text = std::fs::read_to_string(&journal).unwrap();
    let line = text.find("\"label\":\"hdd\"").expect("an hdd unit");
    let at = line + text[line..].find("\"bps\":\"").unwrap() + 10;
    let digit = if &text[at..=at] == "8" { "9" } else { "8" };
    std::fs::write(
        &journal,
        format!("{}{digit}{}", &text[..at], &text[at + 1..]),
    )
    .unwrap();

    let out = reproduce(&["resume", journal.to_str().unwrap()], &[]);
    assert_eq!(out.status.code(), Some(0));
    assert_eq!(String::from_utf8_lossy(&out.stdout), golden("fig4"));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("skipped 1 torn"), "{err}");
    std::fs::remove_file(&journal).ok();
}

#[test]
fn resume_refuses_a_journal_of_another_version() {
    let journal = unique_journal();
    let out = reproduce(
        &["fig4", "--tiny", "--journal", journal.to_str().unwrap()],
        &[],
    );
    assert_eq!(out.status.code(), Some(0));
    reseal_header(&journal, "version", Value::UInt(1));
    let out = reproduce(&["resume", journal.to_str().unwrap()], &[]);
    assert_eq!(out.status.code(), Some(4));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("version 1"), "{err}");
    std::fs::remove_file(&journal).ok();
}

#[test]
fn resume_refuses_a_journal_of_another_build() {
    let journal = unique_journal();
    let out = reproduce(
        &["fig4", "--tiny", "--journal", journal.to_str().unwrap()],
        &[],
    );
    assert_eq!(out.status.code(), Some(0));
    reseal_header(
        &journal,
        "fingerprint",
        Value::Str("deadbeef00c0ffee".to_string()),
    );
    let out = reproduce(&["resume", journal.to_str().unwrap()], &[]);
    assert_eq!(out.status.code(), Some(4));
    assert!(out.stdout.is_empty());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("written by build deadbeef00c0ffee"), "{err}");
    assert!(
        err.contains(bps_experiments::persist::code_fingerprint()),
        "{err}"
    );
    std::fs::remove_file(&journal).ok();
}

#[test]
fn sigkill_mid_sweep_then_resume_is_byte_identical_to_the_golden() {
    let journal = unique_journal();
    // Stall every pvfs unit 200 ms so the kill lands mid-sweep.
    let mut child = Command::new(env!("CARGO_BIN_EXE_reproduce"))
        .args(HERMETIC)
        .args(["fig4", "--tiny", "--journal", journal.to_str().unwrap()])
        .env("BPS_TEST_UNIT_STALL", "pvfs:200")
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::null())
        .spawn()
        .expect("spawn reproduce");
    // Wait until at least one unit hit the journal, then SIGKILL.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
    loop {
        let units = std::fs::read_to_string(&journal)
            .map(|s| s.matches("\"kind\":\"unit\"").count())
            .unwrap_or(0);
        if units >= 2 {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "journal never accumulated units"
        );
        std::thread::sleep(std::time::Duration::from_millis(50));
    }
    child.kill().expect("kill reproduce");
    child.wait().expect("reap reproduce");

    // The journal survived the SIGKILL with at least the finished units;
    // resume completes the run and reproduces the golden bytes exactly,
    // at 1 and at 4 threads.
    for threads in ["1", "4"] {
        let out = reproduce(
            &["resume", journal.to_str().unwrap(), "--threads", threads],
            &[],
        );
        assert_eq!(
            out.status.code(),
            Some(0),
            "resume --threads {threads}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        assert_eq!(
            String::from_utf8_lossy(&out.stdout),
            golden("fig4"),
            "resume --threads {threads} drifted from the golden"
        );
    }
    std::fs::remove_file(&journal).ok();
}

#[test]
fn forced_panic_exits_5_and_names_the_kind() {
    let out = reproduce(&["fig4", "--tiny"], &[("BPS_TEST_UNIT_PANIC", "pvfs-3")]);
    assert_eq!(out.status.code(), Some(5));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("[panic]"), "{err}");
    assert!(err.contains("unit(s) failed"), "{err}");
    // Every poisoned unit is isolated and reported once with its seed and
    // class, in seed order; the other cases' units all complete.
    let reported: Vec<&str> = err
        .lines()
        .filter(|l| l.starts_with("warning: sweep unit failed: "))
        .collect();
    let seeds = Scale::tiny().seeds();
    assert_eq!(reported.len(), seeds.len(), "{err}");
    for (line, seed) in reported.iter().zip(&seeds) {
        let expected = format!("warning: sweep unit failed: case pvfs-3 seed {seed} [panic]: ");
        assert!(line.starts_with(&expected), "{line}");
        assert!(
            line.contains("BPS_TEST_UNIT_PANIC injected panic"),
            "{line}"
        );
    }
    // The report still renders, with the failed case annotated.
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("pvfs-3 [panic]"), "{stdout}");
}

#[test]
fn extension_study_journals_every_unit_and_renders_failed_cases() {
    // The study runs through the engine: one journal line per (case, seed).
    let journal = unique_journal();
    let out = reproduce(
        &[
            "extensions",
            "--tiny",
            "--journal",
            journal.to_str().unwrap(),
        ],
        &[],
    );
    assert_eq!(out.status.code(), Some(0));
    assert_eq!(String::from_utf8_lossy(&out.stdout), golden("extensions"));
    let lines = std::fs::read_to_string(&journal).unwrap();
    let units = lines
        .lines()
        .filter(|l| l.contains("\"kind\":\"unit\""))
        .count();
    assert_eq!(units, 8 * Scale::tiny().seeds().len());
    std::fs::remove_file(&journal).ok();

    // Both S+P+ combinations fail every seed: they rank last as n/a with
    // their kind, and the run exits with the panic code.
    let out = reproduce(
        &["extensions", "--tiny"],
        &[("BPS_TEST_UNIT_PANIC", "S+P+")],
    );
    assert_eq!(out.status.code(), Some(5));
    let stdout = String::from_utf8_lossy(&out.stdout);
    let rows: Vec<&str> = stdout.lines().skip(3).take(8).collect();
    assert_eq!(
        rows[6..],
        ["S+P+E-   n/a [panic]", "S+P+E+   n/a [panic]"],
        "{stdout}"
    );
}

/// `--csv` exports every scenario a target sweeps, also when its figures
/// feed a combined table: `summary` writes its six CC figures, each the
/// same bytes the figure's own target writes, and `extensions` writes
/// `extensions.csv`.
#[test]
fn summary_and_extensions_write_every_swept_scenario_as_csv() {
    let dirs = [unique_journal(), unique_journal()].map(|p| p.with_extension("d"));
    let out = reproduce(
        &[
            "extensions",
            "summary",
            "--tiny",
            "--csv",
            dirs[0].to_str().unwrap(),
        ],
        &[],
    );
    assert_eq!(out.status.code(), Some(0));
    let mut written: Vec<String> = std::fs::read_dir(&dirs[0])
        .expect("csv directory")
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .collect();
    written.sort();
    let mut want: Vec<String> = summary::FIGURES
        .iter()
        .chain(&["extensions"])
        .map(|name| format!("{name}.csv"))
        .collect();
    want.sort();
    assert_eq!(written, want);

    let mut args: Vec<&str> = summary::FIGURES.to_vec();
    args.extend(["--tiny", "--csv", dirs[1].to_str().unwrap()]);
    assert_eq!(reproduce(&args, &[]).status.code(), Some(0));
    for name in summary::FIGURES {
        let read = |dir: &Path| std::fs::read(dir.join(format!("{name}.csv"))).unwrap();
        assert_eq!(read(&dirs[0]), read(&dirs[1]), "{name}.csv");
    }
    for dir in &dirs {
        std::fs::remove_dir_all(dir).ok();
    }
}

/// A reader that goes away early ends `reproduce` quietly (SIGPIPE's
/// default action), not with a panic on the failed write (exit 101).
#[test]
fn closed_stdout_is_not_a_panic() {
    let mut child = Command::new(env!("CARGO_BIN_EXE_reproduce"))
        .arg("list")
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::piped())
        .spawn()
        .expect("spawn reproduce");
    drop(child.stdout.take());
    let out = child.wait_with_output().expect("wait for reproduce");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert_ne!(out.status.code(), Some(101), "{stderr}");
}

#[test]
fn deadline_overrun_exits_6_not_hangs() {
    // Every pvfs-3 unit stalls 60 s; a 100 ms deadline must detach it and
    // report Timeout well before the stall would finish.
    let start = std::time::Instant::now();
    let out = reproduce(
        &["fig4", "--tiny", "--deadline-ms", "100"],
        &[("BPS_TEST_UNIT_STALL", "pvfs-3:60000")],
    );
    assert!(
        start.elapsed() < std::time::Duration::from_secs(30),
        "deadline did not prevent the hang"
    );
    assert_eq!(out.status.code(), Some(6));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("[timeout]"), "{err}");
    assert!(err.contains("exceeded per-unit deadline"), "{err}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("pvfs-3 [timeout]"), "{stdout}");
}

#[test]
fn panic_outranks_timeout_in_the_exit_code() {
    // Both kinds occur; the exit code reports the severest (panic = 5).
    let out = reproduce(
        &["fig4", "--tiny", "--deadline-ms", "100"],
        &[
            ("BPS_TEST_UNIT_PANIC", "pvfs-2"),
            ("BPS_TEST_UNIT_STALL", "pvfs-3:60000"),
        ],
    );
    assert_eq!(out.status.code(), Some(5));
}

#[test]
fn failure_budget_exceeded_exits_7_with_resume_hint() {
    let journal = unique_journal();
    let out = reproduce(
        &[
            "fig4",
            "--tiny",
            "--max-failures",
            "0",
            "--journal",
            journal.to_str().unwrap(),
        ],
        &[("BPS_TEST_UNIT_PANIC", "pvfs")],
    );
    assert_eq!(out.status.code(), Some(7));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("failure budget exceeded"), "{err}");
    assert!(err.contains("reproduce resume"), "{err}");
    std::fs::remove_file(&journal).ok();
}

#[test]
fn failure_budget_is_checked_when_the_last_units_time_out() {
    // pvfs-8 is fig4's last case: both of its units time out, and the
    // budget must still trip after the pool drains, as it does without a
    // deadline, instead of the run reporting plain timeouts (exit 6).
    let out = reproduce(
        &[
            "fig4",
            "--tiny",
            "--threads",
            "1",
            "--deadline-ms",
            "100",
            "--max-failures",
            "1",
        ],
        &[("BPS_TEST_UNIT_STALL", "pvfs-8:60000")],
    );
    assert_eq!(out.status.code(), Some(7));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("failure budget exceeded"), "{err}");
}

#[test]
fn a_file_named_like_a_bundled_scenario_does_not_shadow_it() {
    let dir = std::env::temp_dir().join(format!("bps_cli_robust_shadow_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(dir.join("fig9"), "not a scenario\n").unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_reproduce"))
        .args(HERMETIC)
        .args(["run", "fig9", "--tiny"])
        .current_dir(&dir)
        .output()
        .expect("spawn reproduce");
    assert_eq!(
        out.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert_eq!(String::from_utf8_lossy(&out.stdout), golden("fig9"));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn resume_of_a_missing_journal_exits_4() {
    let out = reproduce(&["resume", "/nonexistent/journal.jsonl"], &[]);
    assert_eq!(out.status.code(), Some(4));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("cannot resume"), "{err}");
}

#[test]
fn scenario_deadline_outranks_the_flag() {
    // Scenario pins a generous 60 s deadline; the CLI asks for 100 ms.
    // The scenario wins, so the 300 ms stall completes and exits 0.
    let dir = std::env::temp_dir().join("bps_cli_robust_scenarios");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("deadline.json");
    let sc = r#"{
  "name": "deadline-demo",
  "title": "scenario deadline outranks the flag",
  "output": "Cc",
  "base": {
    "storage": {"Pvfs": {"servers": 2}},
    "workload": {"Iozone": {"mode": "SeqRead", "file_size": {"Abs": {"n": 65536}},
                  "record_size": {"Abs": {"n": 4096}}, "processes": 1, "seed": 0}}
  },
  "grid": {"dims": [[{"label": "a", "patch": {}}]]},
  "deadline_ms": 60000,
  "expect": []
}"#;
    std::fs::write(&path, sc).unwrap();
    let out = reproduce(
        &[
            "run",
            path.to_str().unwrap(),
            "--tiny",
            "--deadline-ms",
            "100",
        ],
        &[("BPS_TEST_UNIT_STALL", "a:300")],
    );
    assert_eq!(
        out.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    std::fs::remove_file(&path).ok();
}

#[test]
fn check_reports_every_invalid_operand_and_exits_with_the_worst() {
    // Two broken copies of a valid example around an intact one: every
    // operand is checked and named, not only the first bad one.
    let example =
        Path::new(env!("CARGO_MANIFEST_DIR")).join("../../examples/scenarios/device-shootout.json");
    let valid = std::fs::read_to_string(&example).unwrap();
    let dir = std::env::temp_dir().join(format!("bps_cli_robust_check_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let bad_storage = dir.join("bad-storage.json");
    let bad_layout = dir.join("bad-layout.json");
    let base = "\"storage\": \"Hdd\",";
    std::fs::write(
        &bad_storage,
        valid.replacen(base, "\"storage\": \"Floppy\",", 1),
    )
    .unwrap();
    std::fs::write(
        &bad_layout,
        valid.replacen(base, "\"storage\": \"Hdd\", \"layout\": \"Sideways\",", 1),
    )
    .unwrap();
    let missing = dir.join("missing.json");
    let arg = |p: &Path| p.to_str().unwrap().to_string();
    let check = |paths: &[String]| {
        let mut args = vec!["check"];
        args.extend(paths.iter().map(String::as_str));
        reproduce(&args, &[])
    };

    let out = check(&[arg(&bad_storage), arg(&example), arg(&bad_layout)]);
    assert_eq!(out.status.code(), Some(3));
    assert_eq!(
        String::from_utf8_lossy(&out.stdout),
        "ok: device-shootout (6 cases at quick scale)\n"
    );
    let err = String::from_utf8_lossy(&out.stderr);
    let lines: Vec<&str> = err.lines().collect();
    assert_eq!(lines.len(), 2, "{err}");
    assert!(lines[0].starts_with("error: ") && lines[0].contains("bad-storage.json"));
    assert!(
        lines[0].contains("unknown Storage variant `Floppy`"),
        "{err}"
    );
    assert!(lines[1].starts_with("error: ") && lines[1].contains("bad-layout.json"));
    assert!(
        lines[1].contains("unknown Layout variant `Sideways`"),
        "{err}"
    );

    // An unreadable operand alone exits 4; beside an invalid one, the
    // invalid scenario (the worse kind) sets the code.
    assert_eq!(check(&[arg(&missing)]).status.code(), Some(4));
    let out = check(&[arg(&missing), arg(&bad_layout)]);
    assert_eq!(out.status.code(), Some(3));
    assert_eq!(String::from_utf8_lossy(&out.stderr).lines().count(), 2);
    std::fs::remove_dir_all(&dir).ok();
}
