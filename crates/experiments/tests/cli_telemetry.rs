//! CLI tests for the observability surfaces: `--telemetry` JSONL capture,
//! `profile`, `docs`, the subcommand listing on unknown targets, and the
//! stale-origin grouping in `cache stats`.
//!
//! The load-bearing property is *zero cost when off*: with no telemetry
//! flag the reports must be the exact golden bytes, and with the flag the
//! stdout bytes still must not change — telemetry goes to its own file.

use serde_json::Value;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn golden(name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join(format!("tests/golden/{name}.txt"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

/// Spawn the binary hermetically: single-threaded unless a later flag
/// overrides, persistent store off unless a test opts in.
fn reproduce(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_reproduce"))
        .args(["--threads", "1", "--no-cache"])
        .args(args)
        .output()
        .expect("spawn reproduce")
}

/// A unique scratch path (file or directory) for one test.
fn scratch(name: &str) -> PathBuf {
    let p = std::env::temp_dir().join(format!("bps_cli_tele-{}-{name}", std::process::id()));
    std::fs::remove_dir_all(&p).ok();
    std::fs::remove_file(&p).ok();
    p
}

fn str_field(v: &Value, name: &str) -> String {
    match v.field(name).expect("object") {
        Value::Str(s) => s.clone(),
        other => panic!("field `{name}` should be a string, got {}", other.kind()),
    }
}

fn u64_field(v: &Value, name: &str) -> u64 {
    match v.field(name).expect("object") {
        Value::UInt(n) => *n,
        other => panic!("field `{name}` should be a u64, got {}", other.kind()),
    }
}

/// Run with `--telemetry`, parse every JSONL line, and return them.
fn telemetry_lines(args: &[&str], path: &Path) -> Vec<Value> {
    let mut full: Vec<&str> = args.to_vec();
    let p = path.to_str().unwrap().to_string();
    full.push("--telemetry");
    full.push(&p);
    let out = reproduce(&full);
    assert!(
        out.status.success(),
        "reproduce {full:?} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = std::fs::read_to_string(path).expect("telemetry file written");
    text.lines()
        .map(|l| {
            serde_json::from_str::<Value>(l).unwrap_or_else(|e| panic!("bad JSONL `{l}`: {e}"))
        })
        .collect()
}

/// The final `counters` line as (name, value) pairs.
fn counters_of(lines: &[Value]) -> Vec<(String, u64)> {
    let last = lines.last().expect("non-empty telemetry");
    assert_eq!(str_field(last, "kind"), "counters", "counters line is last");
    match last.field("counters").expect("object") {
        Value::Object(pairs) => pairs
            .iter()
            .map(|(k, v)| match v {
                Value::UInt(n) => (k.clone(), *n),
                other => panic!("counter `{k}` should be u64, got {}", other.kind()),
            })
            .collect(),
        other => panic!("`counters` should be an object, got {}", other.kind()),
    }
}

#[test]
fn telemetry_flag_does_not_change_a_single_stdout_byte() {
    let path = scratch("off-identity.jsonl");
    let plain = reproduce(&["fig4", "--tiny"]);
    assert!(plain.status.success());
    assert_eq!(String::from_utf8_lossy(&plain.stdout), golden("fig4"));

    let traced = reproduce(&["fig4", "--tiny", "--telemetry", path.to_str().unwrap()]);
    assert!(traced.status.success());
    assert_eq!(
        String::from_utf8_lossy(&traced.stdout),
        golden("fig4"),
        "--telemetry must not perturb the report bytes"
    );
    assert!(path.is_file(), "telemetry file must be written");
    std::fs::remove_file(&path).ok();
}

#[test]
fn telemetry_jsonl_schema_round_trips() {
    let path = scratch("schema.jsonl");
    let lines = telemetry_lines(&["fig4", "--tiny"], &path);
    assert!(lines.len() >= 3, "meta + at least one span + counters");

    // First line: meta with the schema version and the argv.
    let meta = &lines[0];
    assert_eq!(str_field(meta, "kind"), "meta");
    assert_eq!(u64_field(meta, "version"), 1);
    match meta.field("args").expect("object") {
        Value::Array(items) => {
            assert!(items
                .iter()
                .any(|a| matches!(a, Value::Str(s) if s == "fig4")))
        }
        other => panic!("`args` should be an array, got {}", other.kind()),
    }

    // Middle lines: phase and unit spans with integer-microsecond timing.
    let mut phases = Vec::new();
    let mut units = 0usize;
    for line in &lines[1..lines.len() - 1] {
        match str_field(line, "kind").as_str() {
            "phase" => {
                phases.push(str_field(line, "name"));
                u64_field(line, "start_us");
                u64_field(line, "dur_us");
            }
            "unit" => {
                units += 1;
                str_field(line, "case");
                u64_field(line, "seed");
                u64_field(line, "start_us");
                u64_field(line, "dur_us");
            }
            other => panic!("unexpected line kind `{other}`"),
        }
    }
    for expected in [
        "engine.expand",
        "engine.sweep",
        "engine.score",
        "target:fig4",
    ] {
        assert!(
            phases.iter().any(|p| p == expected),
            "missing phase {expected}: {phases:?}"
        );
    }
    assert!(units > 0, "a cold fig4 run must record sweep units");

    // Last line: one value per registered counter, registry order.
    let counters = counters_of(&lines);
    assert!(counters.iter().any(|(k, v)| k == "sweep.units" && *v > 0));
    assert!(counters.iter().any(|(k, v)| k == "engine.wakes" && *v > 0));
    let names: Vec<&str> = counters.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(names[0], "engine.wakes", "counters keep registry order");
    std::fs::remove_file(&path).ok();
}

#[test]
fn counters_are_deterministic_and_monotone_under_threads() {
    // Two identical parallel runs agree exactly — counters are event
    // counts, not timings — and a superset workload never counts less.
    let pa = scratch("mono-a.jsonl");
    let pb = scratch("mono-b.jsonl");
    let pc = scratch("mono-c.jsonl");
    let small_a = counters_of(&telemetry_lines(&["fig4", "--tiny", "--threads", "4"], &pa));
    let small_b = counters_of(&telemetry_lines(&["fig4", "--tiny", "--threads", "4"], &pb));
    assert_eq!(
        small_a, small_b,
        "parallel counter totals must be deterministic"
    );

    let big = counters_of(&telemetry_lines(
        &["fig4", "fig5", "--tiny", "--threads", "4"],
        &pc,
    ));
    for ((name, small), (bname, big)) in small_a.iter().zip(&big) {
        assert_eq!(name, bname);
        assert!(
            big >= small,
            "{name}: fig4+fig5 counted {big}, fig4 alone {small}"
        );
    }
    for p in [pa, pb, pc] {
        std::fs::remove_file(&p).ok();
    }
}

#[test]
fn shared_cases_are_served_from_the_l1_memo() {
    // `summary` re-scores every CC figure, so after fig4, fig5 and fig9
    // their cases must come from the in-process memo.
    let path = scratch("l1-hits.jsonl");
    let counters = counters_of(&telemetry_lines(
        &["fig4", "fig5", "fig9", "summary", "--tiny"],
        &path,
    ));
    let hits = counters
        .iter()
        .find(|(k, _)| k == "cache.l1.hits")
        .map(|&(_, v)| v)
        .expect("cache.l1.hits counter");
    assert!(hits > 0, "no L1 memo hits across fig4 fig5 fig9 summary");
    std::fs::remove_file(&path).ok();
}

#[test]
fn docs_generation_is_byte_deterministic() {
    let a = scratch("docs-a");
    let b = scratch("docs-b");
    for dir in [&a, &b] {
        let out = reproduce(&["docs", "--out", dir.to_str().unwrap()]);
        assert!(
            out.status.success(),
            "docs failed: {}",
            String::from_utf8_lossy(&out.stderr)
        );
    }
    let mut names: Vec<String> = std::fs::read_dir(&a)
        .unwrap()
        .flatten()
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .collect();
    names.sort();
    assert!(names.contains(&"index.md".to_string()), "{names:?}");
    assert!(
        names.len() >= 7,
        "expected the full reference, got {names:?}"
    );
    for name in &names {
        let pa = std::fs::read(a.join(name)).unwrap();
        let pb = std::fs::read(b.join(name))
            .unwrap_or_else(|e| panic!("{name} missing from second run: {e}"));
        assert_eq!(pa, pb, "{name} differs between two `docs` runs");
        assert!(
            String::from_utf8_lossy(&pa).starts_with("<!-- Generated by"),
            "{name} must carry the generated banner"
        );
    }
    std::fs::remove_dir_all(&a).ok();
    std::fs::remove_dir_all(&b).ok();
}

#[test]
fn unknown_subcommand_lists_the_full_command_surface() {
    let out = reproduce(&["frobnicate"]);
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("unknown target: frobnicate"), "{err}");
    assert!(err.contains("subcommands: "), "{err}");
    for sub in [
        "list", "run", "check", "topology", "resume", "cache", "profile", "docs",
    ] {
        assert!(err.contains(sub), "subcommand listing misses {sub}: {err}");
    }
    assert!(err.contains("valid targets: all, table1"), "{err}");
}

#[test]
fn profile_prints_phase_and_counter_tables() {
    let out = reproduce(&["profile", "fig4", "--tiny"]);
    assert!(
        out.status.success(),
        "profile failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("== profile: fig4 (tiny scale) =="), "{text}");
    assert!(text.contains("target:fig4"), "{text}");
    assert!(text.contains("engine.sweep"), "{text}");
    assert!(text.contains("sweep.units"), "{text}");
    assert!(text.contains("engine.wakes"), "{text}");
}

/// FNV-1a matching the store's entry checksum, so the test can re-seal a
/// doctored payload.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[test]
fn cache_stats_groups_stale_entries_by_origin() {
    let dir = scratch("stale-origin");
    let cold = Command::new(env!("CARGO_BIN_EXE_reproduce"))
        .args(["fig4", "--tiny", "--threads", "1"])
        .env("BPS_CACHE_DIR", &dir)
        .output()
        .expect("spawn reproduce");
    assert!(cold.status.success());

    // Rewrite one entry as if a different build had written it: swap the
    // fingerprint inside the payload and re-seal the header checksum.
    let mut entries: Vec<PathBuf> = std::fs::read_dir(&dir)
        .expect("cache populated")
        .flatten()
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == "case"))
        .collect();
    entries.sort();
    assert!(entries.len() >= 2, "need two entries to doctor");
    let text = std::fs::read_to_string(&entries[0]).unwrap();
    let (_, payload) = text.split_once('\n').unwrap();
    let payload = payload.trim_end_matches('\n');
    let marker = "\"fingerprint\":\"";
    let at = payload.find(marker).expect("payload carries a fingerprint") + marker.len();
    let mut doctored = payload.to_string();
    doctored.replace_range(at..at + 16, "deadbeef00c0ffee");
    let sealed = format!(
        "bps-case 1 {} {:016x}\n{doctored}\n",
        doctored.len(),
        fnv1a(doctored.as_bytes())
    );
    std::fs::write(&entries[0], sealed).unwrap();

    // And age a second entry's format version: a different stale origin.
    let text = std::fs::read_to_string(&entries[1]).unwrap();
    std::fs::write(&entries[1], text.replacen("bps-case 1 ", "bps-case 0 ", 1)).unwrap();

    let stats = Command::new(env!("CARGO_BIN_EXE_reproduce"))
        .args(["cache", "stats"])
        .env("BPS_CACHE_DIR", &dir)
        .output()
        .expect("spawn reproduce");
    assert!(stats.status.success());
    let text = String::from_utf8_lossy(&stats.stdout);
    assert!(text.contains("stale entries by origin:"), "{text}");
    assert!(
        text.contains("deadbeef00c0.. (1)"),
        "foreign fingerprint should appear truncated: {text}"
    );
    assert!(text.contains("format v0 (1)"), "{text}");
    std::fs::remove_dir_all(&dir).ok();
}
