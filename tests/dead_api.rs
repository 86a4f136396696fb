//! Ratchet on dead public API: every `pub fn` / `pub const fn` declared in
//! the non-test part of `crates/*/src` must be named somewhere else in the
//! non-test code of `crates/*/src`, `src/`, `examples/` or
//! `benchmark/src`, or be on the allow list below with its reason. A
//! function kept alive only by its own unit tests fails this test; delete
//! it instead. A listed name that is no longer dead fails too, so the
//! list only shrinks.
//!
//! "Non-test part" means each file up to its first `#[cfg(test)]`, with
//! `//` comment lines (docs included) and `pub use` re-exports (single-
//! or multi-line) ignored: a re-export forwards a name, it does not call
//! it. Names are matched as whole identifiers, without type resolution: a
//! name is dead when it occurs only where a `pub fn` declares it.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// `(function name, why it stays although no product path calls it)`.
const ALLOWED: [(&str, &str); 11] = [
    (
        "add_process",
        "bps-trace collector API: the toolkit users record real applications with",
    ),
    (
        "into_trace",
        "bps-trace collector API: the toolkit users record real applications with",
    ),
    (
        "sender",
        "bps-trace collector API: the toolkit users record real applications with",
    ),
    (
        "spearman",
        "rank statistic for scoring the central claim (ROADMAP item 1)",
    ),
    (
        "kendall_tau",
        "rank statistic for scoring the central claim (ROADMAP item 1)",
    ),
    (
        "from_cases",
        "CcReport over recorded traces, used by tests/end_to_end.rs",
    ),
    (
        "submit",
        "the healthy-path reference that Device::submit_scaled must equal",
    ),
    ("extract", "the sieve-plan oracle of prop_sieving"),
    ("take_trace", "observation seam for the fs tests"),
    ("device_stats", "observation seam for the fs tests"),
    ("assert_cc_expectations", "the figure-test helper"),
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

/// The non-test, non-comment lines of a source file, without its
/// `pub use` statements.
fn code_lines(text: &str) -> impl Iterator<Item = &str> {
    let mut in_pub_use = false;
    text.lines()
        .take_while(|l| !l.trim_start().starts_with("#[cfg(test)]"))
        .filter(|l| !l.trim_start().starts_with("//"))
        .filter(move |l| {
            in_pub_use = in_pub_use || l.trim_start().starts_with("pub use ");
            let re_export = in_pub_use;
            in_pub_use = in_pub_use && !l.trim_end().ends_with(';');
            !re_export
        })
}

fn identifiers(line: &str) -> impl Iterator<Item = &str> {
    line.split(|c: char| !(c.is_alphanumeric() || c == '_'))
        .filter(|w| w.starts_with(|c: char| c.is_alphabetic() || c == '_'))
}

/// The function a line declares, if it is `pub fn` or `pub const fn`.
fn pub_fn(line: &str) -> Option<&str> {
    let line = line.trim_start();
    let rest = line.strip_prefix("pub ")?;
    let rest = rest.strip_prefix("const ").unwrap_or(rest);
    let rest = rest.strip_prefix("fn ")?;
    identifiers(rest).next()
}

#[test]
fn every_public_function_has_a_caller() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut crate_files = Vec::new();
    for krate in std::fs::read_dir(root.join("crates")).expect("read crates/") {
        rust_files(
            &krate.expect("crate entry").path().join("src"),
            &mut crate_files,
        );
    }
    let mut other_files = Vec::new();
    for dir in ["src", "examples", "benchmark/src"] {
        rust_files(&root.join(dir), &mut other_files);
    }

    let mut uses: BTreeMap<String, usize> = BTreeMap::new();
    let mut declared: BTreeMap<String, Vec<String>> = BTreeMap::new();
    for file in crate_files.iter().chain(&other_files) {
        let text = std::fs::read_to_string(file).expect("read source file");
        let in_crates = crate_files.contains(file);
        for line in code_lines(&text) {
            for word in identifiers(line) {
                *uses.entry(word.to_string()).or_default() += 1;
            }
            if let Some(name) = pub_fn(line).filter(|_| in_crates) {
                let rel = file.strip_prefix(root).expect("file under the repo");
                declared
                    .entry(name.to_string())
                    .or_default()
                    .push(rel.display().to_string());
            }
        }
    }

    let dead: Vec<(&str, &Vec<String>)> = declared
        .iter()
        .filter(|(name, files)| uses[name.as_str()] == files.len())
        .map(|(name, files)| (name.as_str(), files))
        .collect();
    let allowed = |name: &str| ALLOWED.iter().any(|(a, _)| *a == name);
    let new: Vec<String> = dead
        .iter()
        .filter(|(name, _)| !allowed(name))
        .map(|(name, files)| format!("{name} ({})", files.join(", ")))
        .collect();
    let revived: Vec<&str> = ALLOWED
        .iter()
        .map(|(name, _)| *name)
        .filter(|name| !dead.iter().any(|(d, _)| d == name))
        .collect();
    assert!(
        new.is_empty(),
        "{} public functions have no caller outside tests; delete them or allow-list them with a reason:\n  {}",
        new.len(),
        new.join("\n  ")
    );
    assert!(
        revived.is_empty(),
        "allow-listed functions now have a caller or are gone; drop them from ALLOWED: {revived:?}"
    );
}
