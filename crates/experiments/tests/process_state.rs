//! Ratchet on process-wide mutable state in `bps-experiments`: every
//! `static` of an `Atomic*`, `OnceLock`, `Mutex` or `RwLock` type under
//! `src/` must be on the allow list below, each with its reason. Run
//! options travel in `engine::RunOpts`, not in statics; a new static
//! fails this test, and so does a listed one that is gone (drop it from
//! the list so the ratchet only tightens).

use std::path::{Path, PathBuf};

/// `(file under src/, static name, why it is process-wide)`.
const ALLOWED: [(&str, &str, &str); 7] = [
    (
        "supervise.rs",
        "INTERRUPTED",
        "set by the SIGINT/SIGTERM handler, which can reach nothing but a static",
    ),
    (
        "scenario/store.rs",
        "SEQ",
        "makes the store's temp-file names unique across the threads of one process",
    ),
    (
        "scenario/engine.rs",
        "MEMO",
        "the in-process case memo; benchmark/ runs through it (ROADMAP item 4)",
    ),
    (
        "scenario/store.rs",
        "ACTIVE",
        "the active case store; benchmark/ installs it with store::set_active (ROADMAP item 4)",
    ),
    (
        "scenario/store.rs",
        "STORE_HITS",
        "benchmark/ reads it through store::store_stats (ROADMAP item 4)",
    ),
    (
        "scenario/store.rs",
        "STORE_MISSES",
        "benchmark/ reads it through store::store_stats (ROADMAP item 4)",
    ),
    (
        "supervise.rs",
        "LEDGER",
        "the failure ledger; benchmark/ drains it with take_recorded_failures (ROADMAP item 4)",
    ),
];

fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in std::fs::read_dir(dir).unwrap_or_else(|e| panic!("read {}: {e}", dir.display())) {
        let path = entry.expect("directory entry").path();
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|x| x == "rs") {
            out.push(path);
        }
    }
}

/// The name of the `static` item a line declares, if its type holds
/// mutable state.
fn stateful_static(line: &str) -> Option<&str> {
    let line = line.trim_start();
    let line = line
        .strip_prefix("pub(crate) ")
        .or_else(|| line.strip_prefix("pub "))
        .unwrap_or(line);
    let item = line.strip_prefix("static ")?;
    let item = item.strip_prefix("mut ").unwrap_or(item);
    let (name, ty) = item.split_once(':')?;
    ["Atomic", "OnceLock", "Mutex", "RwLock"]
        .iter()
        .any(|t| ty.contains(t))
        .then_some(name.trim())
}

#[test]
fn only_allowed_statics_hold_process_wide_state() {
    let src = Path::new(env!("CARGO_MANIFEST_DIR")).join("src");
    let mut files = Vec::new();
    rust_files(&src, &mut files);
    let mut found: Vec<(String, String)> = Vec::new();
    for file in &files {
        let text = std::fs::read_to_string(file).expect("read source file");
        let rel = file
            .strip_prefix(&src)
            .expect("file under src/")
            .to_string_lossy()
            .replace('\\', "/");
        for line in text.lines() {
            if let Some(name) = stateful_static(line) {
                found.push((rel.clone(), name.to_string()));
            }
        }
    }
    found.sort();
    let mut allowed: Vec<(String, String)> = ALLOWED
        .iter()
        .map(|(file, name, _)| (file.to_string(), name.to_string()))
        .collect();
    allowed.sort();
    let new: Vec<_> = found.iter().filter(|s| !allowed.contains(s)).collect();
    let gone: Vec<_> = allowed.iter().filter(|s| !found.contains(s)).collect();
    assert!(
        new.is_empty(),
        "process-wide statics not on the allow list (pass the value in engine::RunOpts instead): {new:?}"
    );
    assert!(
        gone.is_empty(),
        "allow-listed statics no longer exist; drop them from ALLOWED: {gone:?}"
    );
}
