//! Ratchet on dead public API: every `pub fn` / `pub const fn` declared in
//! the non-test part of `crates/*/src` must be called somewhere in the
//! non-test code of `crates/*/src`, `src/`, `examples/` or
//! `benchmark/src`, or be on the allow list below with its reason. A
//! function kept alive only by its own unit tests fails this test; delete
//! it instead. A use inside a checked `pub fn` counts only when that
//! function is alive itself or allow-listed, so functions that only call
//! each other are dead together. A listed name that is no longer dead
//! fails too, so the list only shrinks.
//!
//! "Non-test part" means each file up to its first `#[cfg(test)]`, with
//! `//` comments, the contents of string and char literals and `use`
//! statements ignored: a message or an import mentions a name, it does
//! not call it.
//!
//! A method is resolved by its type. A `pub fn` declared in `impl T` is
//! alive only through a use tied to `T`: a path (`T::name`, `Self::name`
//! inside `impl T`, also passed as a value), or a call `recv.name(..)`
//! whose receiver's type is inferred to be `T`. Receivers are typed by a
//! small local inference over the token stream: `self`, function
//! parameters, annotated or inferred `let`s, struct fields, tuple-variant
//! and struct patterns, return types of the workspace's own functions,
//! closure and `for` bindings over iterators, and the few std methods
//! that pass an element type through (`unwrap`, `get`, `iter`, `lock`,
//! ...). A call whose receiver cannot be typed keeps nothing alive, so a
//! `pub fn read` is not called by `file.read(&mut buf)` on a
//! `std::fs::File`, nor by `other.read(..)` on another type. A live
//! `T::len` keeps `T::is_empty`, which clippy's `len_without_is_empty`
//! asks for. A free `pub fn` is alive through a bare call `name(..)` or a
//! module path `module::name`.

use std::collections::{BTreeMap, HashMap, HashSet};
use std::path::{Path, PathBuf};

/// `(Type::name or name, why it stays although no product path calls it)`.
const ALLOWED: [(&str, &str); 5] = [
    (
        "spearman",
        "rank statistic for scoring the central claim (ROADMAP item 1)",
    ),
    (
        "kendall_tau",
        "rank statistic for scoring the central claim (ROADMAP item 1)",
    ),
    ("extract", "the sieve-plan oracle of prop_sieving"),
    (
        "max_depth",
        "the batch queue depth the streaming MaxQD sweep must equal (prop_analysis)",
    ),
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

/// A token of blanked source: an identifier, a literal (a string or char
/// literal keeps only its delimiters, a lifetime counts as a literal) or
/// punctuation (`::`, `->`, `=>`, `..`, `..=` and the two-character
/// comparison and logic operators are one token each).
#[derive(Debug)]
struct Tok {
    ident: bool,
    text: String,
}

fn tokens(text: &str) -> Vec<Tok> {
    let c: Vec<char> = text.chars().collect();
    let word = |x: char| x.is_alphanumeric() || x == '_';
    let mut out = Vec::new();
    let mut i = 0;
    while i < c.len() {
        if c[i].is_whitespace() {
            i += 1;
            continue;
        }
        let start = i;
        let ident = c[i].is_alphabetic() || c[i] == '_';
        if ident {
            while i < c.len() && word(c[i]) {
                i += 1;
            }
        } else if c[i].is_ascii_digit() {
            while i < c.len()
                && (word(c[i]) || (c[i] == '.' && c.get(i + 1).is_some_and(char::is_ascii_digit)))
            {
                i += 1;
            }
        } else if c[i] == '"' || (c[i] == '\'' && c.get(i + 1).is_some_and(|x| x.is_whitespace())) {
            // A literal's body is blank, so the next quote closes it.
            i += 1 + c[i + 1..].iter().take_while(|&&x| x != c[start]).count() + 1;
        } else if c[i] == '\'' {
            i += 1;
            while i < c.len() && word(c[i]) {
                i += 1;
            }
        } else {
            let rest: String = c[i..(i + 3).min(c.len())].iter().collect();
            i += if rest == "..=" {
                3
            } else if ["::", "->", "=>", "..", "&&", "||", "==", "!=", "<=", ">="]
                .iter()
                .any(|p| rest.starts_with(p))
            {
                2
            } else {
                1
            };
        }
        let end = i.min(c.len());
        out.push(Tok {
            ident,
            text: c[start..end].iter().collect(),
        });
    }
    out
}

/// A type as far as the inference needs it: the last path segment and
/// its generic arguments. References, `mut`, `dyn`, `impl` and lifetimes
/// are dropped; a tuple's head is `()`, a slice's or array's is `[]`.
#[derive(Clone, Debug, Default, PartialEq)]
struct Ty {
    head: String,
    args: Vec<Ty>,
}

impl Ty {
    fn named(head: &str) -> Ty {
        Ty {
            head: head.to_string(),
            args: Vec::new(),
        }
    }

    fn wrap(head: &str, arg: Ty) -> Ty {
        Ty {
            head: head.to_string(),
            args: vec![arg],
        }
    }

    fn arg(&self, n: usize) -> Option<Ty> {
        self.args.get(n).cloned()
    }

    /// This type with `Self` replaced by `ty`.
    fn subst_self(mut self, ty: &str) -> Ty {
        if self.head == "Self" {
            self.head = ty.to_string();
        }
        self.args = self.args.into_iter().map(|a| a.subst_self(ty)).collect();
        self
    }
}

/// Keywords that may stand before a parenthesized expression.
const KEYWORDS: [&str; 7] = ["if", "match", "while", "in", "return", "else", "break"];

/// Types whose methods reach their first argument's by auto-deref.
const DEREF: [&str; 4] = ["Box", "Rc", "Arc", "Cow"];

fn is_type_name(s: &str) -> bool {
    s.starts_with(|c: char| c.is_ascii_uppercase())
}

fn text(t: &[Tok], i: usize) -> &str {
    t.get(i).map_or("", |x| x.text.as_str())
}

/// The index just past the `>` matching the `<` at `i`.
fn skip_angles(t: &[Tok], mut i: usize) -> usize {
    let mut depth = 0i32;
    while i < t.len() {
        match text(t, i) {
            "<" => depth += 1,
            ">" => depth -= 1,
            _ => {}
        }
        i += 1;
        if depth == 0 {
            break;
        }
    }
    i
}

/// The `[start, end)` ranges of `t[a..b]` split at commas outside any
/// bracket, angle brackets included.
fn split_top(t: &[Tok], a: usize, b: usize) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    let (mut depth, mut start) = (0i32, a);
    for i in a..b {
        match text(t, i) {
            "(" | "[" | "{" | "<" => depth += 1,
            ")" | "]" | "}" | ">" => depth -= 1,
            "," if depth == 0 => {
                out.push((start, i));
                start = i + 1;
            }
            _ => {}
        }
    }
    if start < b {
        out.push((start, b));
    }
    out
}

/// Index of the first token in `t[a..b]` that is not an attribute,
/// `pub` or `pub(..)`.
fn skip_attrs_and_pub(t: &[Tok], close: &[usize], mut a: usize, b: usize) -> usize {
    while a < b {
        if text(t, a) == "#" {
            a += if text(t, a + 1) == "!" { 2 } else { 1 };
            a = close[a] + 1;
        } else if text(t, a) == "pub" {
            a += 1;
            if text(t, a) == "(" {
                a = close[a] + 1;
            }
        } else {
            break;
        }
    }
    a
}

/// Parse a type starting at `*i`, leaving `*i` just past it.
fn parse_ty(t: &[Tok], i: &mut usize) -> Ty {
    while *i < t.len()
        && (matches!(
            text(t, *i),
            "&" | "&&" | "mut" | "dyn" | "impl" | "*" | "const"
        ) || text(t, *i).starts_with('\''))
    {
        *i += 1;
    }
    match text(t, *i) {
        "(" => {
            *i += 1;
            Ty {
                head: "()".to_string(),
                args: parse_ty_list(t, i, ")"),
            }
        }
        "[" => {
            *i += 1;
            let elem = parse_ty(t, i);
            let mut depth = 1;
            while *i < t.len() && depth > 0 {
                match text(t, *i) {
                    "[" => depth += 1,
                    "]" => depth -= 1,
                    _ => {}
                }
                *i += 1;
            }
            Ty::wrap("[]", elem)
        }
        _ => {
            let mut head = String::new();
            while t.get(*i).is_some_and(|x| x.ident) {
                head = t[*i].text.clone();
                *i += 1;
                if text(t, *i) == "::" && t.get(*i + 1).is_some_and(|x| x.ident) {
                    *i += 1;
                } else {
                    break;
                }
            }
            let mut args = Vec::new();
            if text(t, *i) == "<" {
                *i += 1;
                args = parse_ty_list(t, i, ">");
            }
            if matches!(head.as_str(), "Fn" | "FnMut" | "FnOnce") && text(t, *i) == "(" {
                *i += 1;
                parse_ty_list(t, i, ")");
                args = if text(t, *i) == "->" {
                    *i += 1;
                    vec![parse_ty(t, i)]
                } else {
                    Vec::new()
                };
            }
            Ty { head, args }
        }
    }
}

/// Parse comma-separated types up to and past `close`; an associated
/// type binding `Item = X` contributes `X`, bounds after `+` are skipped.
fn parse_ty_list(t: &[Tok], i: &mut usize, close: &str) -> Vec<Ty> {
    let mut out = Vec::new();
    while *i < t.len() {
        match text(t, *i) {
            x if x == close => {
                *i += 1;
                break;
            }
            "," => {
                *i += 1;
                continue;
            }
            _ => {}
        }
        if t[*i].ident && text(t, *i + 1) == "=" {
            *i += 2;
        }
        let before = *i;
        out.push(parse_ty(t, i));
        let mut depth = 0i32;
        while *i < t.len() {
            match text(t, *i) {
                x if depth == 0 && (x == close || x == ",") => break,
                "(" | "[" | "<" => depth += 1,
                ")" | "]" | ">" => depth -= 1,
                _ => {}
            }
            *i += 1;
        }
        if *i == before {
            *i += 1;
        }
    }
    out
}

/// A function with a body: where the body is, the type of `self` in it,
/// its parameters' types, and its key when it is a checked `pub fn`.
struct FnItem {
    body: (usize, usize),
    self_ty: Option<String>,
    params: HashMap<String, Ty>,
    key: Option<Key>,
}

/// One source file as tokens, with each bracket's matching partner.
struct File {
    rel: String,
    in_crates: bool,
    t: Vec<Tok>,
    close: Vec<usize>,
    fns: Vec<FnItem>,
    /// `(body start, body end, type)` of every `impl` block.
    impls: Vec<(usize, usize, String)>,
}

/// Names a pattern binds, each with its type where inferred.
type Bindings = Vec<(String, Option<Ty>)>;

/// A `pub fn`: `(Some(type), name)` for a method, `(None, name)` for a
/// free function.
type Key = (Option<String>, String);

/// Per user, the keys it uses: `Some(key)` for the body of a checked
/// `pub fn`, `None` for all other code.
type Uses = HashMap<Option<Key>, HashSet<Key>>;

/// What the declarations of every file say: signatures, fields, payloads.
#[derive(Default)]
struct Model {
    /// `(type, fn)` to return type, for every `fn` in an `impl` block.
    methods: HashMap<(String, String), Ty>,
    /// `(module, fn)` to return type for free functions, the module
    /// being the file's stem (its directory's name for `mod.rs` and
    /// `lib.rs`).
    free: HashMap<(String, String), Ty>,
    /// `(type, field)` to field type; tuple fields are named `0`, `1`,
    /// ...; a struct variant's type is `Enum::Variant`.
    fields: HashMap<(String, String), Ty>,
    /// `(enum, variant)` to the tuple variant's payload types.
    variants: HashMap<(String, String), Vec<Ty>>,
    /// `NAME` and `Type::NAME` of consts and statics to their types.
    consts: HashMap<String, Ty>,
    aliases: HashMap<String, Ty>,
    /// Every `pub fn` of `crates/*/src`, with the files declaring it.
    declared: BTreeMap<Key, Vec<String>>,
}

impl File {
    fn new(rel: String, in_crates: bool, source: &str) -> File {
        let blanked = blank_literals(source);
        let code: Vec<&str> = code_lines(&blanked).collect();
        let t = tokens(&code.join("\n"));
        let mut close: Vec<usize> = (0..t.len()).collect();
        let mut open = Vec::new();
        for (i, tok) in t.iter().enumerate() {
            match tok.text.as_str() {
                "(" | "[" | "{" => open.push(i),
                ")" | "]" | "}" => {
                    let j = open
                        .pop()
                        .unwrap_or_else(|| panic!("{rel}: unbalanced `{}`", tok.text));
                    close[i] = j;
                    close[j] = i;
                }
                _ => {}
            }
        }
        assert!(open.is_empty(), "{rel}: unclosed bracket");
        File {
            rel,
            in_crates,
            t,
            close,
            fns: Vec::new(),
            impls: Vec::new(),
        }
    }

    fn module(&self) -> String {
        let path = Path::new(&self.rel);
        match path.file_stem().and_then(|s| s.to_str()) {
            Some("mod" | "lib" | "main") | None => path.parent().and_then(Path::file_name),
            Some(_) => path.file_stem(),
        }
        .and_then(|s| s.to_str())
        .unwrap_or_default()
        .to_string()
    }

    /// Record this file's items in `m` and its function bodies in
    /// `self.fns`.
    fn scan_items(&mut self, m: &mut Model) {
        let (t, close) = (&self.t, &self.close);
        // `(end, Some(type))` for an impl block, `(end, None)` otherwise.
        let mut scopes: Vec<(usize, Option<String>)> = Vec::new();
        let mut i = 0;
        while i < t.len() {
            while scopes.last().is_some_and(|&(end, _)| end < i) {
                scopes.pop();
            }
            let in_impl = scopes.last().and_then(|(_, ty)| ty.clone());
            let top_level = scopes.is_empty();
            match text(t, i) {
                "impl" => {
                    let mut j = i + 1;
                    if text(t, j) == "<" {
                        j = skip_angles(t, j);
                    }
                    let mut ty = parse_ty(t, &mut j);
                    if text(t, j) == "for" {
                        j += 1;
                        ty = parse_ty(t, &mut j);
                    }
                    while text(t, j) != "{" {
                        j += 1;
                    }
                    scopes.push((close[j], Some(ty.head.clone())));
                    self.impls.push((j, close[j], ty.head));
                    i = j;
                }
                "fn" if t.get(i + 1).is_some_and(|x| x.ident) => {
                    let name = t[i + 1].text.clone();
                    let mut k = i;
                    while matches!(text(t, k.wrapping_sub(1)), "const" | "async" | "unsafe") {
                        k -= 1;
                    }
                    let public = text(t, k.wrapping_sub(1)) == "pub";
                    let mut j = i + 2;
                    if text(t, j) == "<" {
                        j = skip_angles(t, j);
                    }
                    let params_end = close[j];
                    let mut params = HashMap::new();
                    for (a, b) in split_top(t, j + 1, params_end) {
                        let a = skip_attrs_and_pub(t, close, a, b);
                        let colon = (a..b).find(|&x| text(t, x) == ":");
                        let pat: Vec<&str> = (a..colon.unwrap_or(b))
                            .map(|x| text(t, x))
                            .filter(|x| !matches!(*x, "&" | "mut"))
                            .collect();
                        if let ([name], Some(c)) = (pat.as_slice(), colon) {
                            if *name != "self" {
                                let ty = parse_ty(t, &mut (c + 1));
                                let ty = match &in_impl {
                                    Some(s) => ty.subst_self(s),
                                    None => ty,
                                };
                                params.insert(name.to_string(), ty);
                            }
                        }
                    }
                    j = params_end + 1;
                    let mut ret = Ty::named("()");
                    if text(t, j) == "->" {
                        j += 1;
                        ret = parse_ty(t, &mut j);
                    }
                    while !matches!(text(t, j), "{" | ";" | "") {
                        j += 1;
                    }
                    match &in_impl {
                        Some(ty) => {
                            let ret = ret.subst_self(ty);
                            m.methods.insert((ty.clone(), name.clone()), ret);
                        }
                        None => {
                            m.free.insert((self.module(), name.clone()), ret);
                        }
                    }
                    let key = (public && self.in_crates).then(|| (in_impl.clone(), name));
                    if let Some(key) = &key {
                        m.declared
                            .entry(key.clone())
                            .or_default()
                            .push(self.rel.clone());
                    }
                    if text(t, j) == "{" {
                        scopes.push((close[j], None));
                        self.fns.push(FnItem {
                            body: (j, close[j]),
                            self_ty: in_impl,
                            params,
                            key,
                        });
                    }
                    i = j;
                }
                "struct" | "enum" | "union" if t.get(i + 1).is_some_and(|x| x.ident) => {
                    let name = t[i + 1].text.clone();
                    let mut j = i + 2;
                    if text(t, j) == "<" {
                        j = skip_angles(t, j);
                    }
                    while !matches!(text(t, j), "{" | "(" | ";" | "") {
                        j += 1;
                    }
                    if matches!(text(t, j), "{" | "(") {
                        let tuple = text(t, j) == "(";
                        let enumeration = text(t, i) == "enum";
                        for (n, (a, b)) in split_top(t, j + 1, close[j]).into_iter().enumerate() {
                            let a = skip_attrs_and_pub(t, close, a, b);
                            if tuple {
                                let ty = parse_ty(t, &mut a.clone());
                                m.fields.insert((name.clone(), n.to_string()), ty);
                            } else if enumeration {
                                if text(t, a + 1) == "{" {
                                    let variant = format!("{name}::{}", t[a].text);
                                    for (x, y) in split_top(t, a + 2, close[a + 1]) {
                                        let x = skip_attrs_and_pub(t, close, x, y);
                                        if text(t, x + 1) == ":" {
                                            let ty = parse_ty(t, &mut (x + 2));
                                            m.fields
                                                .insert((variant.clone(), t[x].text.clone()), ty);
                                        }
                                    }
                                } else if text(t, a + 1) == "(" {
                                    let payload = split_top(t, a + 2, close[a + 1])
                                        .into_iter()
                                        .map(|(x, _)| parse_ty(t, &mut x.clone()))
                                        .collect();
                                    m.variants
                                        .insert((name.clone(), t[a].text.clone()), payload);
                                }
                            } else if text(t, a + 1) == ":" {
                                let ty = parse_ty(t, &mut (a + 2));
                                m.fields.insert((name.clone(), t[a].text.clone()), ty);
                            }
                        }
                        j = close[j];
                    }
                    i = j;
                }
                "type" if top_level && text(t, i + 2) == "=" => {
                    let ty = parse_ty(t, &mut (i + 3));
                    m.aliases.insert(t[i + 1].text.clone(), ty);
                }
                "const" | "static" if text(t, i + 2) == ":" => {
                    let ty = parse_ty(t, &mut (i + 3));
                    let name = match &in_impl {
                        Some(s) => format!("{s}::{}", t[i + 1].text),
                        None => t[i + 1].text.clone(),
                    };
                    m.consts.insert(name, ty);
                }
                "{" => scopes.push((close[i], None)),
                _ => {}
            }
            i += 1;
        }
    }

    /// The type named by the path segment ending at `k`, the token before
    /// a `::`: `T` of `T::`, `T` of `T::<..>::` and of `<T as Tr>::`.
    fn segment(&self, k: usize, self_ty: Option<&str>) -> Option<String> {
        let t = &self.t;
        let seg = if text(t, k) == ">" {
            let mut depth = 0;
            let mut lt = k;
            loop {
                match text(t, lt) {
                    ">" => depth += 1,
                    "<" => depth -= 1,
                    _ => {}
                }
                if depth == 0 {
                    break;
                }
                lt = lt.checked_sub(1)?;
            }
            if text(t, lt.wrapping_sub(1)) == "::" {
                text(t, lt.wrapping_sub(2))
            } else {
                text(t, lt + 1)
            }
        } else {
            text(t, k)
        };
        match seg {
            "Self" => self_ty.map(str::to_string),
            "" => None,
            s => Some(s.to_string()),
        }
    }

    /// Record in `uses` every call-shaped use in this file, each tied to
    /// its type where it names a method, under the `pub fn` it occurs in.
    fn scan_uses(&self, m: &Model, uses: &mut Uses) {
        let t = &self.t;
        let mut fns = self.fns.iter().peekable();
        // Innermost last: the function bodies around the token.
        let mut envs: Vec<Env> = Vec::new();
        // Innermost last: `(body end, scrutinee type)` of `match`es.
        let mut matches: Vec<(usize, Option<Ty>)> = Vec::new();
        let no_vars = HashMap::new();
        // `let` bindings, applied at the end of their statement.
        let mut pending: Vec<(usize, Bindings)> = Vec::new();
        for i in 0..t.len() {
            while envs.last().is_some_and(|e| e.end < i) {
                envs.pop();
            }
            while matches.last().is_some_and(|e| e.0 < i) {
                matches.pop();
            }
            while let Some(f) = fns.next_if(|f| f.body.0 == i) {
                envs.push(Env {
                    end: f.body.1,
                    self_ty: f.self_ty.clone(),
                    vars: f.params.clone(),
                    user: f.key.clone(),
                });
            }
            let self_ty = match envs.last() {
                Some(e) => e.self_ty.clone(),
                None => self
                    .impls
                    .iter()
                    .rev()
                    .find(|(a, b, _)| *a < i && i < *b)
                    .map(|(_, _, ty)| ty.clone()),
            };
            let cx = Cx {
                m,
                f: self,
                self_ty: self_ty.as_deref(),
                vars: envs.last().map_or(&no_vars, |e| &e.vars),
            };
            let mut bind: Bindings = Vec::new();
            while let Some(p) = pending.iter().position(|p| p.0 == i) {
                bind.extend(pending.swap_remove(p).1);
            }
            let (prev, next) = (text(t, i.wrapping_sub(1)), text(t, i + 1));
            match text(t, i) {
                "let" => {
                    let (end, names) = cx.let_bindings(i);
                    pending.push((end, names));
                }
                "for" => bind.extend(cx.for_bindings(i)),
                "match" => {
                    let brace = cx.expr_end(i + 1, &["{"]);
                    let ty = brace.checked_sub(1).and_then(|e| cx.ty_before(e, 0));
                    matches.push((self.close[brace], ty));
                }
                "|" | "||" if matches!(prev, "(" | "," | "=" | "move" | "{" | ";" | "=>" | ":") => {
                    bind.extend(cx.closure_bindings(i))
                }
                "(" | "{" if i > 0 && t[i - 1].ident => bind
                    .extend(cx.pattern_bindings(i - 1, matches.last().and_then(|x| x.1.clone()))),
                name if t[i].ident && prev != "fn" => {
                    let called = next == "(" || (next == "::" && text(t, i + 2) == "<");
                    let key = match prev {
                        "." if called => cx
                            .ty_before(i - 2, 0)
                            .and_then(|recv| cx.callee(&recv, name, 0))
                            .map(Some),
                        "::" if next != "::" => {
                            let seg = self.segment(i - 2, cx.self_ty);
                            Some(
                                seg.filter(|s| is_type_name(s))
                                    .map(|s| cx.resolve(Ty::named(&s)).head),
                            )
                        }
                        "." | "::" => None,
                        _ if called => Some(None),
                        _ => None,
                    };
                    if let Some(ty) = key {
                        let user = envs.last().and_then(|e| e.user.clone());
                        uses.entry(user).or_default().insert((ty, name.to_string()));
                    }
                }
                _ => {}
            }
            if let Some(env) = envs.last_mut() {
                for (name, ty) in bind {
                    match ty {
                        Some(ty) => env.vars.insert(name, ty),
                        None => env.vars.remove(&name),
                    };
                }
            }
        }
    }
}

/// One function body being scanned: where it ends, the type of `self`,
/// the local bindings so far, and the checked `pub fn` it belongs to.
struct Env {
    end: usize,
    self_ty: Option<String>,
    vars: HashMap<String, Ty>,
    user: Option<Key>,
}

/// The inference context at one token: the model, the file, the type of
/// `self` and the local bindings so far.
struct Cx<'a> {
    m: &'a Model,
    f: &'a File,
    self_ty: Option<&'a str>,
    vars: &'a HashMap<String, Ty>,
}

impl Cx<'_> {
    fn resolve(&self, mut ty: Ty) -> Ty {
        for _ in 0..8 {
            match self.m.aliases.get(&ty.head) {
                Some(a) if a.head != ty.head => ty = a.clone(),
                _ => break,
            }
        }
        ty
    }

    /// The workspace type whose method `name` a call on `recv` reaches.
    fn callee(&self, recv: &Ty, name: &str, depth: u32) -> Option<String> {
        let recv = self.resolve(recv.clone());
        if self
            .m
            .methods
            .contains_key(&(recv.head.clone(), name.to_string()))
        {
            Some(recv.head)
        } else if DEREF.contains(&recv.head.as_str()) && depth < 8 {
            self.callee(&recv.arg(0)?, name, depth + 1)
        } else {
            None
        }
    }

    fn field(&self, recv: &Ty, name: &str, depth: u32) -> Option<Ty> {
        let recv = self.resolve(recv.clone());
        match self.m.fields.get(&(recv.head.clone(), name.to_string())) {
            Some(ty) => Some(ty.clone()),
            None if DEREF.contains(&recv.head.as_str()) && depth < 8 => {
                self.field(&recv.arg(0)?, name, depth + 1)
            }
            None => None,
        }
    }

    /// The element type iterating over `ty` yields.
    fn elem(&self, ty: &Ty) -> Option<Ty> {
        let ty = self.resolve(ty.clone());
        match ty.head.as_str() {
            "Vec"
            | "VecDeque"
            | "[]"
            | "Iter"
            | "IterMut"
            | "IntoIter"
            | "Iterator"
            | "DoubleEndedIterator"
            | "ExactSizeIterator"
            | "Option"
            | "BTreeSet"
            | "HashSet"
            | "Drain" => ty.arg(0),
            "Box" | "Rc" | "Arc" => self.elem(&ty.arg(0)?),
            _ => None,
        }
    }

    /// What calling method `name` on a `recv` returns.
    fn method_ret(&self, recv: Ty, name: &str, depth: u32) -> Option<Ty> {
        let recv = self.resolve(recv);
        if let Some(ret) = self.m.methods.get(&(recv.head.clone(), name.to_string())) {
            return Some(ret.clone());
        }
        let head = recv.head.as_str();
        let seq = matches!(head, "Vec" | "VecDeque" | "[]" | "BTreeSet" | "HashSet");
        let map = matches!(head, "HashMap" | "BTreeMap");
        let iter = self.elem(&recv).is_some() && !seq && head != "Option";
        let wrapped = matches!(head, "Option" | "Result");
        match name {
            "unwrap" | "expect" | "unwrap_or" | "unwrap_or_default" | "unwrap_or_else"
                if wrapped =>
            {
                recv.arg(0)
            }
            "ok" if head == "Result" => Some(Ty::wrap("Option", recv.arg(0)?)),
            "ok_or" | "ok_or_else" if head == "Option" => Some(Ty::wrap("Result", recv.arg(0)?)),
            "clone" | "to_owned" | "as_ref" | "as_mut" | "borrow" | "borrow_mut" | "as_deref"
            | "as_deref_mut" | "by_ref" => Some(recv),
            "take" | "cloned" | "copied" | "filter" if head == "Option" => Some(recv),
            "lock" | "read" | "write" | "try_lock" if matches!(head, "Mutex" | "RwLock") => {
                Some(Ty::wrap("Result", recv.arg(0)?))
            }
            "get" | "get_mut" | "first" | "last" | "first_mut" | "last_mut" | "pop"
            | "pop_front" | "pop_back" | "front" | "back" | "front_mut" | "back_mut"
                if seq =>
            {
                Some(Ty::wrap("Option", recv.arg(0)?))
            }
            "get" | "get_mut" | "remove" if map => Some(Ty::wrap("Option", recv.arg(1)?)),
            "entry" if map => Some(Ty::wrap("Entry", recv.arg(1)?)),
            "or_default" | "or_insert" | "or_insert_with" if head == "Entry" => recv.arg(0),
            "iter" | "iter_mut" | "into_iter" | "drain" if seq || head == "Option" => {
                Some(Ty::wrap("Iter", recv.arg(0)?))
            }
            "iter" | "iter_mut" | "into_iter" | "drain" if map => Some(Ty::wrap(
                "Iter",
                Ty {
                    head: "()".to_string(),
                    args: vec![recv.arg(0)?, recv.arg(1)?],
                },
            )),
            "enumerate" if iter => Some(Ty::wrap(
                "Iter",
                Ty {
                    head: "()".to_string(),
                    args: vec![Ty::named("usize"), self.elem(&recv)?],
                },
            )),
            "values" | "values_mut" | "into_values" if map => Some(Ty::wrap("Iter", recv.arg(1)?)),
            "keys" | "into_keys" if map => Some(Ty::wrap("Iter", recv.arg(0)?)),
            "filter" | "rev" | "skip" | "take" | "step_by" | "chain" | "peekable" | "cloned"
            | "copied" | "inspect" | "skip_while" | "take_while" | "fuse"
                if iter =>
            {
                Some(Ty::wrap("Iter", self.elem(&recv)?))
            }
            "collect" if iter => Some(Ty::wrap("Vec", self.elem(&recv)?)),
            "next" | "last" | "min" | "max" | "nth" | "find" | "min_by_key" | "max_by_key"
            | "min_by" | "max_by" | "next_back" | "peek"
                if iter =>
            {
                Some(Ty::wrap("Option", self.elem(&recv)?))
            }
            _ if DEREF.contains(&head) && depth < 8 => {
                self.method_ret(recv.arg(0)?, name, depth + 1)
            }
            _ => None,
        }
    }

    /// The return type of free function `name` of `module`, or of the
    /// only free function so named.
    fn free_ret(&self, module: &str, name: &str) -> Option<Ty> {
        if let Some(ret) = self.m.free.get(&(module.to_string(), name.to_string())) {
            return Some(ret.clone());
        }
        let mut all = self.m.free.iter().filter(|((_, f), _)| f == name);
        match (all.next(), all.next()) {
            (Some((_, ret)), None) => Some(ret.clone()),
            _ => None,
        }
    }

    /// The type of the single argument of the call whose `(` is `open`;
    /// for a closure, the type of its body.
    fn arg_ty(&self, open: usize, depth: u32) -> Option<Ty> {
        let t = &self.f.t;
        let end = self.f.close[open];
        let mut a = open + 1;
        if text(t, a) == "move" {
            a += 1;
        }
        if text(t, a) == "|" && self.expr_end(a + 1, &["|"]) + 1 >= end {
            return None;
        }
        self.ty_before(end - 1, depth + 1)
    }

    /// What the call whose function name is token `callee` returns.
    fn call_ret(&self, callee: usize, depth: u32) -> Option<Ty> {
        let t = &self.f.t;
        let name = text(t, callee);
        match text(t, callee.wrapping_sub(1)) {
            "." => {
                let recv = self.resolve(self.ty_before(callee - 2, depth + 1)?);
                let arg = || self.arg_ty(callee + 1, depth);
                match name {
                    "map" | "and_then" | "filter_map" if recv.head == "Option" => {
                        let body = arg()?;
                        match name {
                            "map" => Some(Ty::wrap("Option", body)),
                            _ => Some(body),
                        }
                    }
                    "map" => Some(Ty::wrap("Iter", arg()?)),
                    "filter_map" => Some(Ty::wrap("Iter", arg()?.arg(0)?)),
                    "zip" => {
                        let pair = vec![self.elem(&recv)?, self.elem(&arg()?)?];
                        Some(Ty::wrap(
                            "Iter",
                            Ty {
                                head: "()".to_string(),
                                args: pair,
                            },
                        ))
                    }
                    _ => self.method_ret(recv, name, 0),
                }
            }
            "::" => {
                let seg = self.f.segment(callee - 2, self.self_ty)?;
                if !is_type_name(&seg) {
                    return self.free_ret(&seg, name);
                }
                let ty = self.resolve(Ty::named(&seg));
                match self.m.methods.get(&(ty.head.clone(), name.to_string())) {
                    Some(ret) => Some(ret.clone()),
                    None if matches!(name, "new" | "default" | "with_capacity" | "from") => {
                        Some(ty)
                    }
                    None => None,
                }
            }
            _ if is_type_name(name) => Some(self.resolve(Ty::named(name))),
            _ => self.free_ret(&self.f.module(), name),
        }
    }

    /// The type of the postfix expression whose last token is `k`, if it
    /// can be inferred.
    fn ty_before(&self, k: usize, depth: u32) -> Option<Ty> {
        let (t, close) = (&self.f.t, &self.f.close);
        if depth > 32 {
            return None;
        }
        let prev = text(t, k.wrapping_sub(1));
        match text(t, k) {
            ")" => {
                let callee = close[k].checked_sub(1)?;
                if text(t, callee) == ">" {
                    // `name::<T>(..)`: `collect` and `into` return their `T`.
                    let mut lt = callee;
                    let mut d = 0;
                    loop {
                        match text(t, lt) {
                            ">" => d += 1,
                            "<" => d -= 1,
                            _ => {}
                        }
                        if d == 0 {
                            break;
                        }
                        lt = lt.checked_sub(1)?;
                    }
                    if text(t, lt - 1) != "::" {
                        return None;
                    }
                    return match text(t, lt - 2) {
                        "collect" | "into" | "parse" => Some(parse_ty(t, &mut (lt + 1))),
                        _ => self.call_ret(lt - 2, depth),
                    };
                }
                if t[callee].ident && !KEYWORDS.contains(&text(t, callee)) {
                    return self.call_ret(callee, depth);
                }
                // A parenthesized expression or a tuple.
                let parts = split_top(t, close[k] + 1, k);
                let mut tys = parts
                    .iter()
                    .map(|&(_, b)| self.ty_before(b - 1, depth + 1).unwrap_or_default());
                match parts.len() {
                    1 => tys.next().filter(|ty| !ty.head.is_empty()),
                    _ => Some(Ty {
                        head: "()".to_string(),
                        args: tys.collect(),
                    }),
                }
            }
            "]" => {
                let open = close[k];
                let container = self.ty_before(open.checked_sub(1)?, depth + 1)?;
                self.elem(&container)
            }
            "?" => {
                let ty = self.ty_before(k - 1, depth + 1)?;
                matches!(ty.head.as_str(), "Option" | "Result")
                    .then(|| ty.arg(0))
                    .flatten()
            }
            "}" => self.block_ty(k, depth),
            _ if prev == "." => {
                let recv = self.ty_before(k - 2, depth + 1)?;
                self.field(&recv, text(t, k), 0)
            }
            name if t[k].ident && prev == "::" => {
                let seg = self.f.segment(k - 2, self.self_ty)?;
                match self.m.consts.get(&format!("{seg}::{name}")) {
                    Some(ty) => Some(ty.clone()),
                    None => is_type_name(name).then(|| self.resolve(Ty::named(&seg))),
                }
            }
            "self" | "Self" => self.self_ty.map(Ty::named),
            name => self
                .vars
                .get(name)
                .or_else(|| self.m.consts.get(name))
                .cloned(),
        }
    }

    /// The type of the brace expression closed at `k`: a struct literal
    /// `T { .. }`, a `match` whose arm `Ok(x) => x` or `Some(x) => x`
    /// unwraps its scrutinee, or a block (an `if`/`else` branch included)
    /// whose tail expression has a type.
    fn block_ty(&self, k: usize, depth: u32) -> Option<Ty> {
        let (t, close) = (&self.f.t, &self.f.close);
        let open = close[k];
        let name = text(t, open.wrapping_sub(1));
        if is_type_name(name) {
            return Some(self.resolve(Ty::named(name)));
        }
        let is_match = (open.saturating_sub(64)..open)
            .any(|m| text(t, m) == "match" && self.expr_end(m + 1, &["{"]) == open);
        if is_match {
            let mut j = open + 1;
            while j + 5 < k {
                let unwraps = matches!(text(t, j), "Ok" | "Some")
                    && text(t, j + 1) == "("
                    && text(t, j + 3) == ")"
                    && text(t, j + 4) == "=>"
                    && text(t, j + 5) == text(t, j + 2)
                    && matches!(text(t, j + 6), "," | "}");
                if unwraps {
                    return self.ty_before(open - 1, depth + 1)?.arg(0);
                }
                if matches!(text(t, j), "(" | "[" | "{") {
                    j = close[j];
                }
                j += 1;
            }
            return None;
        }
        let tail = match text(t, k - 1) {
            ";" | "{" => None,
            _ => self.ty_before(k - 1, depth + 1),
        };
        if tail.is_none() && text(t, open.wrapping_sub(1)) == "else" {
            return self.ty_before(open.checked_sub(2)?, depth + 1);
        }
        tail
    }

    /// The index of the first of `stops` at bracket depth 0 from `a` on.
    fn expr_end(&self, mut a: usize, stops: &[&str]) -> usize {
        let t = &self.f.t;
        while a < t.len() && !stops.contains(&text(t, a)) {
            if matches!(text(t, a), "(" | "[" | "{") {
                a = self.f.close[a];
            }
            a += 1;
        }
        a
    }

    /// The names the pattern at `a..b` binds, typed by matching it
    /// against a value of type `ty`: an identifier, `_`, a tuple,
    /// `Some(..)`/`Ok(..)`, or an enum's tuple variant `E::V(..)`.
    fn bind_pattern(&self, mut a: usize, b: usize, ty: Option<Ty>) -> Bindings {
        let (t, close) = (&self.f.t, &self.f.close);
        while a < b && matches!(text(t, a), "&" | "mut" | "ref") {
            a += 1;
        }
        if a >= b {
            return Vec::new();
        }
        if a + 1 == b && t[a].ident {
            return match text(t, a) {
                "_" | "None" => Vec::new(),
                name if is_type_name(name) => Vec::new(),
                name => vec![(name.to_string(), ty)],
            };
        }
        if text(t, a) == "(" && close[a] + 1 == b {
            let ty = ty.filter(|ty| ty.head == "()");
            return split_top(t, a + 1, close[a])
                .into_iter()
                .enumerate()
                .flat_map(|(n, (x, y))| {
                    let part = ty.as_ref().and_then(|ty| ty.arg(n));
                    self.bind_pattern(x, y, part)
                })
                .collect();
        }
        let mut head = a;
        while head + 2 < b && text(t, head + 1) == "::" {
            head += 2;
        }
        let open = head + 1;
        if !t[head].ident || !matches!(text(t, open), "(" | "{") || close[open] + 1 != b {
            return Vec::new();
        }
        if text(t, open) == "{" {
            // `T { a, b: pat, .. }` or `E::V { .. }`.
            let owner = match head > a {
                true => {
                    let seg = self.f.segment(head - 2, self.self_ty).unwrap_or_default();
                    format!("{}::{}", self.resolve(Ty::named(&seg)).head, text(t, head))
                }
                false => self.resolve(Ty::named(text(t, head))).head,
            };
            return split_top(t, open + 1, close[open])
                .into_iter()
                .flat_map(|(x, y)| {
                    let mut x = x;
                    while x < y && matches!(text(t, x), "ref" | "mut") {
                        x += 1;
                    }
                    let field = text(t, x).to_string();
                    let ty = self.m.fields.get(&(owner.clone(), field.clone())).cloned();
                    match text(t, x + 1) {
                        ":" => self.bind_pattern(x + 2, y, ty),
                        _ if x + 1 == y && t[x].ident => vec![(field, ty)],
                        _ => Vec::new(),
                    }
                })
                .collect();
        }
        let payload: Vec<Option<Ty>> = match text(t, head) {
            "Some" | "Ok" => vec![ty.and_then(|ty| ty.arg(0))],
            variant if head > a => {
                let seg = self.f.segment(head - 2, self.self_ty).unwrap_or_default();
                let e = self.resolve(Ty::named(&seg)).head;
                match self.m.variants.get(&(e, variant.to_string())) {
                    Some(tys) => tys.iter().cloned().map(Some).collect(),
                    None => Vec::new(),
                }
            }
            _ => Vec::new(),
        };
        split_top(t, open + 1, close[open])
            .into_iter()
            .enumerate()
            .flat_map(|(n, (x, y))| self.bind_pattern(x, y, payload.get(n).cloned().flatten()))
            .collect()
    }

    /// `let PAT [: T] = EXPR`: the names `PAT` binds, typed from `T` or
    /// `EXPR`, and the token at which they come into scope.
    fn let_bindings(&self, i: usize) -> (usize, Bindings) {
        let t = &self.f.t;
        let cond = matches!(text(t, i.wrapping_sub(1)), "if" | "while" | "&&");
        let eq = self.expr_end(i + 1, &["=", ";"]);
        if text(t, eq) != "=" {
            return (eq, Vec::new());
        }
        let stops: &[&str] = if cond { &["{"] } else { &[";", "else"] };
        let end = self.expr_end(eq + 1, stops);
        let colon = self.expr_end(i + 1, &[":", "="]);
        // An annotation with `_` in it yields to the inferred type.
        let annotated = (colon < eq).then(|| parse_ty(t, &mut (colon + 1)));
        let partial = |ty: &Ty| ty.head == "_" || ty.args.iter().any(|a| a.head == "_");
        let ty = match annotated {
            Some(ty) if !partial(&ty) => Some(ty),
            annotated => self.ty_before(end - 1, 0).or(annotated),
        };
        (end, self.bind_pattern(i + 1, colon.min(eq), ty))
    }

    /// A tuple-variant or struct pattern at `head` in a `match` arm or
    /// an or-pattern, matched against the innermost `match`'s scrutinee.
    fn pattern_bindings(&self, head: usize, scrutinee: Option<Ty>) -> Bindings {
        let (t, close) = (&self.f.t, &self.f.close);
        let after = text(t, close[head + 1] + 1);
        if !matches!(after, "=>" | "|" | "if") || !is_type_name(text(t, head)) {
            return Vec::new();
        }
        let mut a = head;
        while a >= 2 && text(t, a - 1) == "::" {
            a -= 2;
        }
        self.bind_pattern(a, close[head + 1] + 1, scrutinee)
    }

    /// `for PAT in EXPR {`: `PAT` typed as an element of `EXPR`.
    fn for_bindings(&self, i: usize) -> Bindings {
        let t = &self.f.t;
        let kw = self.expr_end(i + 1, &["in", "{", ";"]);
        if text(t, kw) != "in" {
            return Vec::new();
        }
        let brace = self.expr_end(kw + 1, &["{"]);
        let ty = self.ty_before(brace - 1, 0).and_then(|ty| self.elem(&ty));
        self.bind_pattern(i + 1, kw, ty)
    }

    /// `|a, b: T|` passed to `recv.method(`: untyped parameters typed as
    /// elements of `recv`.
    fn closure_bindings(&self, i: usize) -> Bindings {
        let t = &self.f.t;
        if text(t, i) == "||" {
            return Vec::new();
        }
        let end = self.expr_end(i + 1, &["|"]);
        // The call the closure is an argument of: `recv.method(.., |..|`.
        let mut open = i - 1;
        while open > 0 && text(t, open) != "(" {
            if matches!(text(t, open), ")" | "]" | "}") {
                open = self.f.close[open];
            } else if matches!(text(t, open), ";" | "{" | "[") {
                break;
            }
            open -= 1;
        }
        let method = text(t, open.wrapping_sub(1));
        let elem = (text(t, open) == "(" && text(t, open.wrapping_sub(2)) == ".")
            .then(|| self.ty_before(open - 3, 0))
            .flatten()
            .and_then(|recv| self.elem(&recv));
        // `fold(init, |acc, x| ..)`: `acc` has the type of `init`.
        let init = (method == "fold" && text(t, i - 1) == ",")
            .then(|| self.ty_before(i - 2, 0))
            .flatten();
        split_top(t, i + 1, end)
            .into_iter()
            .enumerate()
            .flat_map(|(n, (a, b))| {
                let colon = self.expr_end(a, &[":"]).min(b);
                let ty = if colon < b {
                    Some(parse_ty(t, &mut (colon + 1)))
                } else if method == "fold" && n == 0 {
                    init.clone()
                } else {
                    elem.clone()
                };
                self.bind_pattern(a, colon, ty)
            })
            .collect()
    }
}

/// `Type::name` for a method, `name` for a free function.
fn display((ty, name): &Key) -> String {
    match ty {
        Some(ty) => format!("{ty}::{name}"),
        None => name.clone(),
    }
}

/// The `pub fn`s of `files` (those in `crates/*/src`) that no use in any
/// of them reaches, as [`display`] names with their declaring files. The
/// `allowed` functions are dead by definition, but what they use lives.
fn dead_functions(
    files: &[(String, bool, String)],
    allowed: &[&str],
) -> Vec<(String, Vec<String>)> {
    let mut model = Model::default();
    let mut parsed: Vec<File> = files
        .iter()
        .map(|(rel, in_crates, source)| File::new(rel.clone(), *in_crates, source))
        .collect();
    for f in &mut parsed {
        f.scan_items(&mut model);
    }
    let mut uses = Uses::new();
    for f in &parsed {
        f.scan_uses(&model, &mut uses);
    }
    // Alive: what code outside the checked `pub fn`s and the allowed ones
    // uses, and what a live one uses in turn. Clippy's
    // `len_without_is_empty` makes a live `T::len` keep `T::is_empty`.
    let mut live: HashSet<Key> = HashSet::new();
    let roots = model
        .declared
        .keys()
        .filter(|key| allowed.contains(&display(key).as_str()))
        .map(|key| Some(key.clone()))
        .chain([None]);
    let mut todo: Vec<Key> = roots
        .flat_map(|user| uses.get(&user).into_iter().flatten().cloned())
        .collect();
    while let Some(key) = todo.pop() {
        if live.insert(key.clone()) {
            if key.1 == "len" {
                todo.push((key.0.clone(), "is_empty".to_string()));
            }
            todo.extend(uses.get(&Some(key)).into_iter().flatten().cloned());
        }
    }
    model
        .declared
        .iter()
        .filter(|(key, _)| !live.contains(*key))
        .map(|(key, files)| (display(key), files.clone()))
        .collect()
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
    let sources: Vec<(String, bool, String)> = crate_files
        .iter()
        .map(|f| (f, true))
        .chain(other_files.iter().map(|f| (f, false)))
        .map(|(file, in_crates)| {
            let rel = file.strip_prefix(root).expect("file under the repo");
            let text = std::fs::read_to_string(file).expect("read source file");
            (rel.display().to_string(), in_crates, text)
        })
        .collect();

    let allowed: Vec<&str> = ALLOWED.iter().map(|(name, _)| *name).collect();
    let dead = dead_functions(&sources, &allowed);
    let new: Vec<String> = dead
        .iter()
        .filter(|(name, _)| !allowed.contains(&name.as_str()))
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
    let words: Vec<String> = tokens(&blank_literals(src))
        .into_iter()
        .filter(|t| t.ident)
        .map(|t| t.text)
        .collect();
    assert_eq!(
        words,
        ["let", "a", "f", "b", "r", "br", "fn", "n", "p", "str", "char"]
    );
    assert_eq!(blank_literals(src).lines().count(), src.lines().count());
}

/// Dead functions of one crate file `src`, next to a non-crate `user`.
fn dead_in(src: &str, user: &str) -> Vec<String> {
    let files = [
        ("crates/x/src/lib.rs".to_string(), true, src.to_string()),
        ("examples/user.rs".to_string(), false, user.to_string()),
    ];
    dead_functions(&files, &["kept"])
        .into_iter()
        .map(|(n, _)| n)
        .collect()
}

/// Imports, test code and declarations are not calls; a bare call and a
/// module path are. A call inside a dead function keeps nothing alive,
/// one inside an allowed function does.
#[test]
fn only_call_shaped_uses_count() {
    let src = "use a::{\n    b,\n    c,\n};\npub use d::e;\n\
               pub fn b() {}\npub fn e() {}\npub fn f() { f2() }\npub fn f2() {}\n\
               pub fn kept() { k2() }\npub fn k2() {}\n\
               #[cfg(test)]\nfn g() { b(); e(); f(); }\n";
    assert_eq!(dead_in(src, ""), ["b", "e", "f", "f2", "kept"]);
    assert_eq!(
        dead_in(src, "fn main() { x::b(); e(); }"),
        ["f", "f2", "kept"]
    );
    assert_eq!(dead_in(src, "fn main() { f(); }"), ["b", "e", "kept"]);
}

/// Two types declare `pub fn read`; only one is called, on a receiver
/// whose type comes from a parameter, a field, a constructor, a closure
/// over a `Vec`, or a payload pattern. A `std::fs::File` and a type
/// parameter bounded by `io::Read` also have `read`, and keep neither.
#[test]
fn methods_resolve_by_receiver_type() {
    let src = "pub struct Fs;\npub struct Stack { fs: Fs, all: Vec<Fs> }\n\
               pub enum Backend { Local(Fs), Other(u8) }\n\
               impl Fs {\n    pub fn new() -> Self { Fs }\n    pub fn read(&self) -> u8 { 0 }\n\
                   pub fn write(&self) {}\n    pub fn size(&self) -> u64 { 0 }\n    pub fn sync(&self) {}\n}\n\
               impl Stack {\n    pub fn read(&self, buf: &mut [u8]) -> usize { buf.len() }\n\
                   pub fn run(&self, b: &Backend) {\n        self.fs.write();\n\
                       self.all.iter().for_each(|f| f.sync());\n\
                       match b { Backend::Local(fs) => { fs.size(); } Backend::Other(_) => {} }\n\
                   }\n}\n";
    let user = "fn main() {\n    let mut f = std::fs::File::open(\"a\").unwrap();\n\
                    let mut buf = [0u8; 4];\n    let _ = f.read(&mut buf);\n\
                    let s = Stack { fs: Fs::new(), all: Vec::new() };\n    s.run(&Backend::Other(1));\n}\n\
                fn generic<R: std::io::Read>(mut r: R, buf: &mut [u8]) { let _ = r.read(buf); }\n";
    assert_eq!(dead_in(src, user), ["Fs::read", "Stack::read"]);
    let user = format!("{user}fn g(st: &Stack) {{ st.read(&mut []); }}\n");
    assert_eq!(dead_in(src, &user), ["Fs::read"]);
    // `Type::name` as a value or a path call ties to `Type` only.
    let user = format!("{user}fn h() -> u8 {{ Some(Fs).map(|x| Fs::read(&x)).unwrap() }}\n");
    assert_eq!(dead_in(src, &user), Vec::<String>::new());
}
