//! Ratchet on dead public API: every `pub fn` / `pub const fn` declared in
//! the non-test part of `crates/*/src` must be named somewhere else in the
//! non-test code of `crates/*/src`, `src/`, `examples/` or
//! `benchmark/src`, or be on the allow list below with its reason. A
//! function kept alive only by its own unit tests fails this test; delete
//! it instead. A listed name that is no longer dead fails too, so the
//! list only shrinks.
//!
//! "Non-test part" means each file up to its first `#[cfg(test)]`, with
//! `//` comments (docs and trailing ones included), the contents of
//! string and char literals (raw strings included) and `use` statements
//! (imports and re-exports, single- or multi-line) ignored: a message or
//! an import mentions a name, it does not call it. Only call-shaped uses
//! count, without type resolution: a name followed by `(` or by a
//! turbofish `::<` (`name(`, `.name(`, `name::<T>(`), or preceded by
//! `::` and not followed by it (`Type::name`, also passed as a value;
//! the `process` of `std::process::exit` is a module). A name that some
//! other item shares (a field, a variable, a module) is not kept alive
//! by it. A name is dead when it has no such use outside the `fn`
//! declarations.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// `(function name, why it stays although no product path calls it)`.
const ALLOWED: [(&str, &str); 8] = [
    (
        "spearman",
        "rank statistic for scoring the central claim (ROADMAP item 1)",
    ),
    (
        "kendall_tau",
        "rank statistic for scoring the central claim (ROADMAP item 1)",
    ),
    (
        "submit",
        "the healthy-path reference that Device::submit_scaled must equal",
    ),
    ("extract", "the sieve-plan oracle of prop_sieving"),
    (
        "max_depth",
        "the batch queue depth the streaming MaxQD sweep must equal (prop_analysis)",
    ),
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

/// `text` with every `//` comment and the contents of every string and
/// char literal (raw and byte strings included) replaced by spaces. Line
/// breaks are kept, so the result has the same lines as `text`.
fn blank_literals(text: &str) -> String {
    let c: Vec<char> = text.chars().collect();
    let ident = |i: usize| c[i].is_alphanumeric() || c[i] == '_';
    // A literal may open here: not inside an identifier, or right after
    // a lone byte prefix `b`.
    let opens =
        |i: usize| i == 0 || !ident(i - 1) || (c[i - 1] == 'b' && (i == 1 || !ident(i - 2)));
    let mut out = String::with_capacity(text.len());
    let mut i = 0;
    while i < c.len() {
        // `(body start, body end, resume)`: the span blanked, and where
        // scanning goes on after the closing delimiter.
        let span = if c[i] == '/' && c.get(i + 1) == Some(&'/') {
            let end = (i..c.len()).find(|&j| c[j] == '\n').unwrap_or(c.len());
            Some((i, end, end))
        } else if c[i] == 'r' && opens(i) {
            // `r"…"`, `r#"…"#`, `br"…"`: no escapes, closed by `"` and as
            // many `#` as opened it.
            let hashes = c[i + 1..].iter().take_while(|&&h| h == '#').count();
            let body = i + 2 + hashes;
            let closes =
                |j: usize| c[j] == '"' && c[j + 1..].iter().take(hashes).all(|&h| h == '#');
            (c.get(body - 1) == Some(&'"')).then(|| {
                let end = (body..c.len()).find(|&j| closes(j)).unwrap_or(c.len());
                (body, end, end + 1 + hashes)
            })
        } else if c[i] == '"' {
            let mut end = i + 1;
            while end < c.len() && c[end] != '"' {
                end += if c[end] == '\\' { 2 } else { 1 };
            }
            Some((i + 1, end, end + 1))
        } else if c[i] == '\'' && opens(i) {
            // `'x'` or `'\…'`; any other quote starts a lifetime or a
            // loop label, which stays.
            let close = if c.get(i + 1) == Some(&'\\') {
                (i + 3..c.len()).find(|&j| c[j] == '\'')
            } else {
                Some(i + 2).filter(|&j| c.get(j) == Some(&'\''))
            };
            close.map(|end| (i + 1, end, end + 1))
        } else {
            None
        };
        match span {
            Some((body, end, resume)) => {
                let (end, resume) = (end.min(c.len()), resume.min(c.len()));
                out.extend(&c[i..body]);
                out.extend(
                    c[body..end]
                        .iter()
                        .map(|&x| if x == '\n' { x } else { ' ' }),
                );
                out.extend(&c[end..resume]);
                i = resume;
            }
            None => {
                out.push(c[i]);
                i += 1;
            }
        }
    }
    out
}

/// The non-test lines of a source file already passed through
/// [`blank_literals`], without its `use` statements.
fn code_lines(text: &str) -> impl Iterator<Item = &str> {
    let mut in_use = false;
    text.lines()
        .take_while(|l| !l.trim_start().starts_with("#[cfg(test)]"))
        .filter(move |l| {
            let l = l.trim_start();
            in_use = in_use || l.starts_with("use ") || l.starts_with("pub use ");
            let import = in_use;
            in_use = in_use && !l.trim_end().ends_with(';');
            !import
        })
}

fn identifiers(line: &str) -> impl Iterator<Item = &str> {
    line.split(|c: char| !(c.is_alphanumeric() || c == '_'))
        .filter(|w| w.starts_with(|c: char| c.is_alphabetic() || c == '_'))
}

/// The call-shaped uses on a line: each identifier followed by `(` or
/// `::<`, or preceded by `::` and not followed by it, except the name an
/// `fn` declares.
fn calls(line: &str) -> Vec<&str> {
    let is_ident = |c: char| c.is_alphanumeric() || c == '_';
    let mut out = Vec::new();
    let mut start = None;
    for (i, c) in line.char_indices().chain([(line.len(), ' ')]) {
        match start {
            None if is_ident(c) => start = Some(i),
            Some(s) if !is_ident(c) => {
                start = None;
                let (before, word, after) = (&line[..s], &line[s..i], &line[i..]);
                let declared = before
                    .trim_end()
                    .strip_suffix("fn")
                    .is_some_and(|b| !b.ends_with(is_ident));
                let called = after.starts_with('(')
                    || after.starts_with("::<")
                    || (before.ends_with("::") && !after.starts_with("::"));
                if called && !declared && word.starts_with(|c: char| !c.is_ascii_digit()) {
                    out.push(word);
                }
            }
            _ => {}
        }
    }
    out
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
        let text = blank_literals(&std::fs::read_to_string(file).expect("read source file"));
        let in_crates = crate_files.contains(file);
        for line in code_lines(&text) {
            for word in calls(line) {
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
        .filter(|(name, _)| !uses.contains_key(name.as_str()))
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

#[test]
fn literals_and_comments_hide_names() {
    let src = "let a = f(\"g(\\\"h\\\")\", 'i', '\\'', b'j', r#\"k\"#, br\"l\"); // m\n\
               fn n<'o>(p: &'o str) -> char { '\"' } // q \"r\"\n";
    let words: Vec<String> = blank_literals(src)
        .lines()
        .flat_map(identifiers)
        .map(str::to_string)
        .collect();
    assert_eq!(
        words,
        ["let", "a", "f", "b", "r", "br", "fn", "n", "o", "p", "o", "str", "char"]
    );
    assert_eq!(blank_literals(src).lines().count(), src.lines().count());
}

#[test]
fn only_call_shaped_uses_count() {
    let src = "use a::{\n    b,\n    c,\n};\npub use d::e;\n\
               let f = g.h(i, j::k, l::<u8>(m), std::v::w(x));\n\
               pub fn n<T>() { o(p) }\n\
               fn q() { r.s; t.b() }\n\
               #[cfg(test)]\n\
               u();\n";
    let found: Vec<&str> = code_lines(src).flat_map(calls).collect();
    assert_eq!(found, ["h", "k", "l", "w", "o", "b"]);
}
