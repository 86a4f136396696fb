//! Regenerate the paper's tables and figures.
//!
//! ```text
//! reproduce all                    # everything, quick scale (default)
//! reproduce fig12                  # one experiment
//! reproduce fig5 --tiny            # test scale
//! reproduce all --paper            # the paper's full data volumes (slow)
//! reproduce list                   # the bundled scenarios, by name
//! reproduce metrics                # the metric registry, by name
//! reproduce run fig9 --tiny        # any bundled scenario through the engine
//! reproduce run my_sweep.json      # a user-authored scenario, no recompiling
//! reproduce check my_sweep.json    # parse + expand without running
//! reproduce topology fig9          # the component graph a scenario's cases run
//! reproduce fig4 --metrics BPS,p99 # score a custom metric selection
//! reproduce fig4 --journal r.jsonl # checkpoint every finished unit
//! reproduce resume r.jsonl         # pick the run back up, skipping done units
//! reproduce cache stats            # the persistent case store, by the numbers
//! reproduce all --no-cache         # bypass the persistent store for one run
//! reproduce fig4 --telemetry t.jsonl  # record phase spans, unit timings, counters
//! reproduce profile fig4 --tiny    # per-phase/per-case time and counter tables
//! reproduce docs                   # regenerate docs/reference from the registries
//! ```

use bps_experiments::export;
use bps_experiments::figures::faults::{self, FaultKind};
use bps_experiments::figures::{
    extensions, fig01, fig02, fig03, overhead, summary, tables, CcFigure,
};
use bps_experiments::journal::Journal;
use bps_experiments::reference::{self, CLI_FLAGS};
use bps_experiments::scale::Scale;
use bps_experiments::scenario::engine::{self, RunOpts};
use bps_experiments::scenario::{registry, spec::Scenario, store};
use bps_experiments::supervise::{self, FailureKind};
use bps_experiments::sweep::SweepExec;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

/// The fixed report targets, in `all` order.
const TARGETS: [&str; 19] = [
    "table1",
    "table2",
    "fig1",
    "fig2",
    "fig3",
    "fig4",
    "fig5",
    "fig6",
    "fig7",
    "fig8",
    "fig9",
    "fig10",
    "fig11",
    "fig12",
    "summary",
    "extensions",
    "overhead",
    "writes",
    "faults",
];

fn usage() -> ! {
    eprintln!(
        "usage: reproduce <target>... [flags]\n\
         \x20      reproduce <subcommand> [operands] [flags]\n\
         targets: all, {}\n\
         flags and subcommands:",
        TARGETS.join(", ")
    );
    let width = CLI_FLAGS.iter().map(|(f, _)| f.len()).max().unwrap_or(0);
    for (flag, what) in CLI_FLAGS {
        eprintln!("  {flag:<width$}  {what}");
    }
    eprintln!("exit codes:");
    for (code, what) in reference::exit_codes() {
        eprintln!("  {code:<3}  {what}");
    }
    eprintln!("environment variables and the registries: docs/reference (`reproduce docs`)");
    std::process::exit(2);
}

/// Exit with a one-line diagnostic (used for failures that have no more
/// specific class: an unknown bundled name, a CSV directory that cannot
/// be written).
fn fail(msg: impl std::fmt::Display) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(1);
}

/// The failure class of an engine error: an invalid scenario or an I/O
/// failure.
fn failure_kind(e: &engine::EngineError) -> FailureKind {
    match e.kind() {
        engine::EngineErrorKind::InvalidSpec => FailureKind::InvalidSpec,
        engine::EngineErrorKind::Io => FailureKind::Io,
    }
}

/// Exit with the engine error's class code: 3 for an invalid scenario,
/// 4 for an I/O failure.
fn fail_engine(e: engine::EngineError) -> ! {
    eprintln!("error: {e}");
    std::process::exit(failure_kind(&e).exit_code());
}

/// Microseconds of a span offset, saturating (spans are process-lifetime
/// scale, far below u64 µs).
fn us(d: Duration) -> u64 {
    d.as_micros().min(u64::MAX as u128) as u64
}

/// Render the collector's events and counter snapshot as the JSONL
/// stream: one `meta` line, `phase`/`unit` lines in completion order, one
/// final `counters` line.
fn telemetry_jsonl(argv: &[String]) -> String {
    use serde::Value;
    let obj = |pairs: Vec<(&str, Value)>| {
        Value::Object(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    };
    let mut lines = Vec::new();
    lines.push(obj(vec![
        ("kind", Value::Str("meta".to_string())),
        ("version", Value::UInt(1)),
        (
            "args",
            Value::Array(argv.iter().map(|a| Value::Str(a.clone())).collect()),
        ),
    ]));
    for e in bps_telemetry::drain_events() {
        lines.push(match e {
            bps_telemetry::Event::Phase { name, start, end } => obj(vec![
                ("kind", Value::Str("phase".to_string())),
                ("name", Value::Str(name)),
                ("start_us", Value::UInt(us(start))),
                ("dur_us", Value::UInt(us(end.saturating_sub(start)))),
            ]),
            bps_telemetry::Event::Unit {
                case,
                seed,
                start,
                end,
            } => obj(vec![
                ("kind", Value::Str("unit".to_string())),
                ("case", Value::Str(case)),
                ("seed", Value::UInt(seed)),
                ("start_us", Value::UInt(us(start))),
                ("dur_us", Value::UInt(us(end.saturating_sub(start)))),
            ]),
        });
    }
    let counters = bps_telemetry::snapshot()
        .into_iter()
        .map(|(c, v)| (c.name().to_string(), Value::UInt(v)))
        .collect();
    lines.push(obj(vec![
        ("kind", Value::Str("counters".to_string())),
        ("counters", Value::Object(counters)),
    ]));
    let mut out = String::new();
    for line in lines {
        out.push_str(&serde_json::to_string(&line).expect("telemetry line encodes"));
        out.push('\n');
    }
    out
}

/// Write the `--telemetry` stream to `telemetry`, if given, with `argv`
/// in its meta line; then drain the run's failure ledger, print a
/// per-kind summary, and exit with the worst kind's code — or with 1 on
/// expectation violations, or 0 on a clean run. Every exit path that
/// follows a run ends here, so expectation violations and unit failures
/// still leave a stream behind.
fn finish(violations: bool, telemetry: Option<&Path>, argv: &[String]) -> ! {
    if let Some(path) = telemetry {
        if let Err(e) = std::fs::write(path, telemetry_jsonl(argv)) {
            eprintln!("warning: cannot write telemetry to {}: {e}", path.display());
        }
    }
    let failures = supervise::take_recorded_failures();
    if !failures.is_empty() {
        let mut counts: Vec<(FailureKind, usize)> = Vec::new();
        for f in &failures {
            match counts.iter_mut().find(|(k, _)| *k == f.kind) {
                Some((_, n)) => *n += 1,
                None => counts.push((f.kind, 1)),
            }
        }
        let summary: Vec<String> = counts
            .iter()
            .map(|(k, n)| format!("{n} {}", k.name()))
            .collect();
        eprintln!("{} unit(s) failed: {}", failures.len(), summary.join(", "));
        let worst = FailureKind::worst(failures.iter().map(|f| f.kind))
            .expect("non-empty failure ledger has a worst kind");
        std::process::exit(worst.exit_code());
    }
    std::process::exit(if violations { 1 } else { 0 });
}

#[cfg(unix)]
extern "C" {
    /// The C library's `signal`; `handler` is a function address or
    /// `SIG_DFL` (0).
    fn signal(signum: i32, handler: usize) -> usize;
}

/// Install a SIGINT/SIGTERM handler that asks the supervisor to stop at
/// the next unit boundary (the journal is flushed per unit, so completed
/// work is already safe). Only installed for journaled runs — an
/// unjournaled run keeps the default kill-me-now behavior.
#[cfg(unix)]
fn install_interrupt_handler() {
    extern "C" fn handle(_signum: i32) {
        // Only an atomic store: async-signal-safe.
        supervise::request_interrupt();
    }
    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;
    let handler = handle as extern "C" fn(i32) as usize;
    // SAFETY: `signal` takes any signal number and a handler address; both
    // numbers are valid and `handle` is an `extern "C" fn(i32)` that only
    // does an atomic store, which is async-signal-safe.
    unsafe {
        signal(SIGINT, handler);
        signal(SIGTERM, handler);
    }
}

#[cfg(not(unix))]
fn install_interrupt_handler() {}

/// Give SIGPIPE back its default action, which the Rust runtime sets to
/// ignore: `reproduce list | head -1` then ends quietly when the reader
/// goes away, where a write to the closed pipe would panic (exit 101).
#[cfg(unix)]
fn restore_sigpipe() {
    const SIGPIPE: i32 = 13;
    const SIG_DFL: usize = 0;
    // SAFETY: `signal` takes any signal number and `SIG_DFL`; resetting a
    // disposition touches no memory of this program.
    unsafe {
        signal(SIGPIPE, SIG_DFL);
    }
}

#[cfg(not(unix))]
fn restore_sigpipe() {}

/// Resolve a `run` operand: a bundled scenario name, else a path to a
/// JSON file (anything with a `.json` suffix or that exists on disk). The
/// name wins, so a stray file named `fig9` in the working directory never
/// shadows the bundled `fig9`; `./fig9` still loads the file.
fn resolve_scenario(arg: &str) -> Scenario {
    if let Some(sc) = registry::find(arg) {
        return sc;
    }
    if !(arg.ends_with(".json") || Path::new(arg).exists()) {
        fail(format_args!(
            "no bundled scenario named `{arg}` (try `reproduce list`, or pass a .json path)"
        ));
    }
    engine::load_path(Path::new(arg)).unwrap_or_else(|e| fail_engine(e))
}

fn cmd_list(filter: Option<&str>) {
    for sc in registry::all() {
        if let Some(f) = filter {
            if !sc.name.contains(f) {
                continue;
            }
        }
        println!("{:<18} {}", sc.name, sc.title);
    }
}

/// `reproduce metrics` — the metric registry: every name a scenario's
/// `metrics` list, an `expect` clause, a Detail output, or `--metrics`
/// can use.
fn cmd_metrics() {
    let reg = bps_core::metrics::registry();
    let row = |m: &dyn bps_core::metrics::MetricFold| {
        println!(
            "  {:<7} {:<9} {:<8} {}",
            m.name(),
            match m.expected_direction() {
                bps_core::metrics::Direction::Negative => "negative",
                bps_core::metrics::Direction::Positive => "positive",
            },
            if m.unit().is_empty() { "-" } else { m.unit() },
            m.describe()
        );
    };
    println!("paper metrics (Table 1 expected correlation directions):");
    for m in reg.paper() {
        row(*m);
    }
    println!("extended metrics:");
    for m in reg.extended() {
        row(*m);
    }
}

/// Parse and validate a `--metrics` argument ("BPS,p99,MaxQD"); exits
/// with the registry listing on an unknown name, mirroring the
/// unknown-target diagnostic.
fn parse_metrics_flag(arg: &str) -> Vec<String> {
    let names: Vec<String> = arg
        .split(',')
        .map(str::trim)
        .filter(|s| !s.is_empty())
        .map(str::to_string)
        .collect();
    if names.is_empty() {
        fail(format_args!(
            "--metrics wants a comma-separated list of metric names, got `{arg}`"
        ));
    }
    for n in &names {
        if bps_core::metrics::registry().find(n).is_none() {
            eprintln!("unknown metric: {n}");
            eprintln!("valid metrics: {}", bps_core::metrics::registry().listing());
            eprintln!("see `reproduce metrics` for descriptions");
            std::process::exit(2);
        }
    }
    names
}

/// A flag's integer value; exits 1 naming the flag when `v` is not an
/// integer, or is zero and `positive` asks for more.
fn int_flag<T: std::str::FromStr + PartialEq + Default>(flag: &str, v: &str, positive: bool) -> T {
    match v.parse::<T>() {
        Ok(n) if !positive || n != T::default() => n,
        _ => fail(format_args!(
            "{flag} wants a {} integer, got `{v}`",
            if positive { "positive" } else { "non-negative" }
        )),
    }
}

/// `reproduce cache stats|verify|clear` — inspect or manage the
/// persistent case store (the directory `BPS_CACHE_DIR` selects, or the
/// build's default). `verify` exits 1 when any entry is unservable.
fn cmd_cache(op: &str) -> ! {
    let s = store::CaseStore::at(store::env_dir());
    match op {
        "stats" => {
            let st = s.stats();
            println!("cache directory: {}", s.dir().display());
            println!("build fingerprint: {}", store::code_fingerprint());
            println!(
                "entries: {} ({} fresh, {} stale, {} corrupt), {} bytes",
                st.entries, st.fresh, st.stale, st.corrupt, st.bytes
            );
            if !st.stale_origins.is_empty() {
                // Name the foreign builds (fingerprint prefixes) so a
                // rebuild's orphans are self-explaining.
                let origins: Vec<String> = st
                    .stale_origins
                    .iter()
                    .map(|(origin, n)| {
                        let shown = match origin.strip_prefix("build ") {
                            Some(fp) if fp.len() > 12 => format!("build {}..", &fp[..12]),
                            _ => origin.clone(),
                        };
                        format!("{shown} ({n})")
                    })
                    .collect();
                println!("stale entries by origin: {}", origins.join(", "));
            }
            std::process::exit(0);
        }
        "verify" => {
            let (checked, problems) = s.verify();
            for p in &problems {
                println!("{}: {}", p.file, p.reason);
            }
            println!(
                "verified {checked} entries: {}",
                if problems.is_empty() {
                    "all servable".to_string()
                } else {
                    format!("{} unservable", problems.len())
                }
            );
            std::process::exit(if problems.is_empty() { 0 } else { 1 });
        }
        "clear" => match s.clear() {
            Ok(n) => {
                println!("cleared {n} entries from {}", s.dir().display());
                std::process::exit(0);
            }
            Err(e) => {
                eprintln!("error: cannot clear {}: {e}", s.dir().display());
                std::process::exit(FailureKind::Io.exit_code());
            }
        },
        _ => usage(),
    }
}

/// `reproduce docs [--out dir]` — render the reference pages from the
/// live registries into `dir` (default `docs/reference`). Deterministic:
/// two runs write byte-identical trees.
fn cmd_docs(out_dir: &Path) -> ! {
    if let Err(e) = std::fs::create_dir_all(out_dir) {
        eprintln!("error: cannot create {}: {e}", out_dir.display());
        std::process::exit(FailureKind::Io.exit_code());
    }
    let pages = bps_experiments::reference::pages();
    for (name, text) in &pages {
        let path = out_dir.join(name);
        if let Err(e) = std::fs::write(&path, text) {
            eprintln!("error: cannot write {}: {e}", path.display());
            std::process::exit(FailureKind::Io.exit_code());
        }
    }
    eprintln!("wrote {} pages under {}", pages.len(), out_dir.display());
    std::process::exit(0);
}

/// Format a span-offset duration as milliseconds with one decimal.
fn ms(total_us: u64) -> String {
    format!("{:.1} ms", total_us as f64 / 1000.0)
}

/// `reproduce profile <target>...` — after the targets ran with the
/// collector installed, aggregate and print the sorted per-phase and
/// per-case breakdowns plus every counter that moved.
fn print_profile(targets: &[&str], scale_label: &str) {
    let wall = us(bps_telemetry::now()).max(1);
    let events = bps_telemetry::drain_events();
    // Aggregate spans: name -> (calls, total µs), first-seen order, then
    // sorted by total descending (ties by name for determinism).
    let mut phases: Vec<(String, u64, u64)> = Vec::new();
    let mut cases: Vec<(String, u64, u64)> = Vec::new();
    for e in &events {
        let (table, key, dur) = match e {
            bps_telemetry::Event::Phase { name, start, end } => {
                (&mut phases, name.clone(), us(end.saturating_sub(*start)))
            }
            bps_telemetry::Event::Unit {
                case, start, end, ..
            } => (&mut cases, case.clone(), us(end.saturating_sub(*start))),
        };
        match table.iter_mut().find(|(k, ..)| *k == key) {
            Some((_, calls, total)) => {
                *calls += 1;
                *total += dur;
            }
            None => table.push((key, 1, dur)),
        }
    }
    let by_total =
        |a: &(String, u64, u64), b: &(String, u64, u64)| b.2.cmp(&a.2).then_with(|| a.0.cmp(&b.0));
    phases.sort_by(by_total);
    cases.sort_by(by_total);

    println!("== profile: {} ({scale_label} scale) ==", targets.join(" "));
    println!();
    println!("phases (wall time, nested spans overlap):");
    println!(
        "  {:<28} {:>6} {:>12} {:>7}",
        "phase", "calls", "total", "share"
    );
    for (name, calls, total) in &phases {
        println!(
            "  {:<28} {:>6} {:>12} {:>6.1}%",
            name,
            calls,
            ms(*total),
            *total as f64 * 100.0 / wall as f64
        );
    }
    if phases.is_empty() {
        println!("  (no phase spans recorded)");
    }
    println!();
    println!("cases (sweep unit time; cached cases never run):");
    println!(
        "  {:<28} {:>6} {:>12} {:>12}",
        "case", "units", "total", "mean"
    );
    const CASE_ROWS: usize = 20;
    for (name, units, total) in cases.iter().take(CASE_ROWS) {
        println!(
            "  {:<28} {:>6} {:>12} {:>12}",
            name,
            units,
            ms(*total),
            ms(total / units.max(&1))
        );
    }
    if cases.len() > CASE_ROWS {
        println!("  ... and {} more case(s)", cases.len() - CASE_ROWS);
    }
    if cases.is_empty() {
        println!("  (no sweep units ran — every case was served from cache)");
    }
    println!();
    println!("counters (delta over this run):");
    let mut any = false;
    for (c, v) in bps_telemetry::snapshot() {
        if v > 0 {
            println!("  {:<28} {:>12}", c.name(), v);
            any = true;
        }
    }
    if !any {
        println!("  (all zero)");
    }
}

/// `reproduce check <name|path.json>...` — take each operand as a
/// bundled scenario's name, else read it as a file, and expand it at
/// every scale, printing `ok: …` or `error: …` for each, then exit with
/// the worst failure's code (0 when every operand is valid).
fn cmd_check(paths: &[String]) -> ! {
    let check = |p: &str| -> Result<String, (String, FailureKind)> {
        let sc = match registry::find(p) {
            Some(sc) => sc,
            None => {
                engine::load_path(Path::new(p)).map_err(|e| (e.to_string(), failure_kind(&e)))?
            }
        };
        let mut quick_cases = 0;
        for (name, scale) in [
            ("tiny", Scale::tiny()),
            ("quick", Scale::quick()),
            ("paper", Scale::paper()),
        ] {
            let cases = engine::expand(&sc, &scale)
                .map_err(|e| (format!("{p}: at --{name}: {e}"), failure_kind(&e)))?;
            if name == "quick" {
                quick_cases = cases.len();
            }
        }
        Ok(format!(
            "ok: {} ({quick_cases} cases at quick scale)",
            sc.name
        ))
    };
    let mut failures = Vec::new();
    for p in paths {
        match check(p) {
            Ok(line) => println!("{line}"),
            Err((msg, kind)) => {
                eprintln!("error: {msg}");
                failures.push(kind);
            }
        }
    }
    std::process::exit(FailureKind::worst(failures).map_or(0, |k| k.exit_code()));
}

/// `reproduce topology <name|path.json>...` — expand each scenario at
/// the selected scale and pretty-print the component graph(s) its cases
/// run: one block per distinct effective topology, with the case labels
/// that share it. Scenarios without an explicit `topology` field show
/// the prebuilt graph derived from their `storage`.
fn cmd_topology(refs: &[String], scale: &Scale) {
    for r in refs {
        let sc = resolve_scenario(r);
        let cases = match engine::expand(&sc, scale) {
            Ok(c) => c,
            Err(e) => fail_engine(e),
        };
        println!(
            "{}: {} ({} case{})",
            sc.name,
            sc.title,
            cases.len(),
            if cases.len() == 1 { "" } else { "s" }
        );
        // Group cases by distinct effective topology, first-seen order.
        let mut groups: Vec<(bps_topology::TopologySpec, Vec<usize>)> = Vec::new();
        for (i, c) in cases.iter().enumerate() {
            let topo = c.effective_topology();
            match groups.iter_mut().find(|(t, _)| *t == topo) {
                Some((_, idxs)) => idxs.push(i),
                None => groups.push((topo, vec![i])),
            }
        }
        for (topo, idxs) in &groups {
            let labels: Vec<&str> = idxs.iter().map(|&i| cases[i].label.as_str()).collect();
            println!("cases: {}", labels.join(", "));
            let mut summaries: Vec<String> =
                idxs.iter().map(|&i| cases[i].workload_summary()).collect();
            summaries.dedup();
            let workload = match summaries.as_slice() {
                [one] => Some(one.as_str()),
                _ => None,
            };
            println!("{}", topo.render(workload));
            println!();
        }
    }
}

/// How this invocation runs its sweeps, fixed once by `main` from the
/// flags.
struct Sweeps<'a> {
    scale: &'a Scale,
    exec: SweepExec,
    opts: &'a RunOpts,
    csv_dir: Option<&'a Path>,
    /// Compute (and export) without printing: `profile` wants the work
    /// without the figure text.
    quiet: bool,
}

impl Sweeps<'_> {
    /// Run one scenario through the engine and write it to `<name>.csv`
    /// when `--csv` asks: every scenario a target sweeps is exported,
    /// whether its report prints as is or feeds a combined table.
    fn run(&self, sc: &Scenario) -> engine::ScenarioOutput {
        let out = engine::run_with_opts(sc, self.scale, self.exec, true, self.opts)
            .unwrap_or_else(|e| fail_engine(e));
        if let Some(dir) = self.csv_dir {
            let csv = match &out {
                engine::ScenarioOutput::Cc(fig) => export::cc_figure_csv(fig),
                engine::ScenarioOutput::Detail(s) => export::detail_series_csv(s),
            };
            match export::write_csv(dir, &sc.name, &csv) {
                Ok(path) => eprintln!("wrote {}", path.display()),
                Err(e) => fail(format_args!(
                    "cannot write {}.csv under {}: {e}",
                    sc.name,
                    dir.display()
                )),
            }
        }
        out
    }

    /// Run one scenario and print its report: the one route from a sweep
    /// to its report, for `run`'s operands and the fixed targets' bundled
    /// scenarios alike.
    fn report(&self, sc: &Scenario) -> engine::ScenarioOutput {
        let out = self.run(sc);
        if !self.quiet {
            println!("{out}");
        }
        out
    }
}

/// A bundled scenario a fixed target runs, by registry name.
fn bundled(name: &str) -> Scenario {
    registry::find(name).unwrap_or_else(|| panic!("no bundled scenario named `{name}`"))
}

/// `reproduce run <name|path.json>...` — report each scenario, then
/// check its declared expectations; true when any was violated.
fn cmd_run(refs: &[String], sweeps: &Sweeps) -> bool {
    let mut bad = false;
    for r in refs {
        let sc = resolve_scenario(r);
        let out = sweeps.report(&sc);
        let violations = engine::violations(&out, &sc.expect, sc.verdict);
        if !violations.is_empty() {
            eprintln!("{}: expectation violations:", sc.name);
            for v in &violations {
                eprintln!("  {v}");
            }
            bad = true;
        }
    }
    bad
}

/// Expand fixed-target operands (`all` means every target) and reject
/// unknown names *before* anything runs: a typo'd subcommand or target
/// prints the full command surface and exits 2 instead of falling
/// through to a partial run.
fn expand_targets(targets: &[String]) -> Vec<&'static str> {
    if targets.iter().any(|t| t == "all") {
        return TARGETS.to_vec();
    }
    let mut out = Vec::with_capacity(targets.len());
    for t in targets {
        match TARGETS.iter().find(|k| **k == t.as_str()) {
            Some(k) => out.push(*k),
            None => {
                eprintln!("unknown target: {t}");
                // The subcommands are the rows of CLI_FLAGS that are not flags.
                let subcommands: Vec<&str> = CLI_FLAGS
                    .iter()
                    .filter_map(|(row, _)| row.split(' ').next().filter(|w| !w.starts_with('-')))
                    .collect();
                eprintln!("subcommands: {}", subcommands.join(", "));
                eprintln!("valid targets: all, {}", TARGETS.join(", "));
                eprintln!(
                    "bundled scenarios run with `reproduce run <name>`; see `reproduce list`"
                );
                std::process::exit(2);
            }
        }
    }
    out
}

/// Run the fixed report targets in order. A sweep target reports its
/// bundled scenarios by registry name; the fixed targets do not check
/// declared expectations (`run` does).
fn run_fixed_targets(expanded: &[&str], sweeps: &Sweeps) {
    let emit = |text: String| {
        if !sweeps.quiet {
            println!("{text}");
        }
    };
    for &target in expanded {
        let _span = if bps_telemetry::enabled() {
            bps_telemetry::phase(&format!("target:{target}"))
        } else {
            bps_telemetry::PhaseGuard::disabled()
        };
        match target {
            "table1" => emit(tables::table1().to_string()),
            "table2" => emit(tables::table2().to_string()),
            "fig1" => emit(fig01::report().to_string()),
            "fig2" => emit(fig02::report().to_string()),
            "fig3" => emit(fig03::report().to_string()),
            "summary" => {
                let figures: Vec<CcFigure> = summary::FIGURES
                    .iter()
                    .map(|name| sweeps.run(&bundled(name)).into_cc())
                    .collect();
                emit(summary::render(&figures));
            }
            "extensions" => {
                let fig = sweeps.run(&extensions::scenario(sweeps.scale)).into_cc();
                emit(extensions::render(&fig));
            }
            "overhead" => emit(overhead::report()),
            "writes" => {
                for name in ["writes-hdd", "writes-ssd"] {
                    sweeps.report(&bundled(name));
                }
            }
            "faults" => {
                let figures: Vec<(FaultKind, CcFigure)> = FaultKind::all()
                    .into_iter()
                    .map(|kind| (kind, sweeps.report(&kind.scenario()).into_cc()))
                    .collect();
                emit(faults::verdict(&figures));
            }
            // fig4..fig12: each is one bundled scenario of the same name.
            name => {
                sweeps.report(&bundled(name));
            }
        }
    }
}

fn main() {
    restore_sigpipe();
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        usage();
    }
    let mut opts = RunOpts::default();

    // `resume <journal> [extra flags]`: the journal header stores the
    // original arguments (minus its own `--journal` pair); extra flags
    // append after them, so a later flag wins via the last-wins parse.
    if args[0] == "resume" {
        if args.len() < 2 {
            usage();
        }
        let path = PathBuf::from(&args[1]);
        let (j, stored) = match Journal::open_resume(&path) {
            Ok(x) => x,
            Err(e) => {
                eprintln!("error: cannot resume from {}: {e}", path.display());
                std::process::exit(FailureKind::Io.exit_code());
            }
        };
        eprintln!(
            "resuming from {}: {} completed unit(s)",
            path.display(),
            j.replayed_units()
        );
        opts.journal = Some(Arc::new(j));
        let mut full = stored;
        full.extend(args.drain(2..));
        args = full;
        if args.is_empty() {
            usage();
        }
    }

    let mut scale = Scale::quick();
    let mut scale_label = "quick";
    let mut targets: Vec<String> = Vec::new();
    let mut csv_dir: Option<PathBuf> = None;
    let mut threads: Option<usize> = None;
    let mut journal_path: Option<PathBuf> = None;
    let mut telemetry_path: Option<PathBuf> = None;
    let mut out_dir: Option<PathBuf> = None;
    let mut no_cache = false;
    // The arguments a fresh journal stores in its header: everything
    // except the `--journal <path>` pair (resume installs its own).
    let mut header_args: Vec<String> = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if a == "--journal" {
            journal_path = Some(PathBuf::from(it.next().unwrap_or_else(|| usage())));
            continue;
        }
        header_args.push(a.clone());
        // A value-taking flag's value, recorded in the header with it.
        let mut value = || {
            let v = it.next().unwrap_or_else(|| usage());
            header_args.push(v.clone());
            v
        };
        match a.as_str() {
            "--paper" => {
                scale = Scale::paper();
                scale_label = "paper";
            }
            "--quick" => {
                scale = Scale::quick();
                scale_label = "quick";
            }
            "--tiny" => {
                scale = Scale::tiny();
                scale_label = "tiny";
            }
            "--csv" => csv_dir = Some(PathBuf::from(value())),
            "--threads" => threads = Some(int_flag(a, value(), true)),
            "--metrics" => opts.metrics = Some(parse_metrics_flag(value())),
            "--deadline-ms" => {
                opts.deadline = Some(Duration::from_millis(int_flag(a, value(), true)));
            }
            "--max-failures" => opts.max_failures = Some(int_flag(a, value(), false)),
            "--telemetry" => telemetry_path = Some(PathBuf::from(value())),
            "--out" => out_dir = Some(PathBuf::from(value())),
            "--no-cache" => no_cache = true,
            other if other.starts_with("--") => usage(),
            other => targets.push(other.to_string()),
        }
    }
    if targets.is_empty() {
        usage();
    }
    // Arm the collector before anything that could emit telemetry runs.
    // `profile` implies collection even without `--telemetry <path>`.
    let profile_mode = targets[0] == "profile";
    if telemetry_path.is_some() || profile_mode {
        bps_telemetry::install(Arc::new(bps_telemetry::AtomicCollector::new()));
    }
    if let Some(path) = &journal_path {
        if opts.journal.is_some() {
            fail(format_args!(
                "resume already journals to the original file; drop --journal {}",
                path.display()
            ));
        }
        match Journal::create(path, &header_args) {
            Ok(j) => opts.journal = Some(Arc::new(j)),
            Err(e) => {
                eprintln!("error: cannot create journal {}: {e}", path.display());
                std::process::exit(FailureKind::Io.exit_code());
            }
        }
    }
    if opts.journal.is_some() {
        install_interrupt_handler();
    }

    // Make the persistent case store live for anything that runs cases;
    // `--no-cache` leaves the engine memo-only.
    if !no_cache {
        store::set_active(Some(Arc::new(store::CaseStore::at(store::env_dir()))));
    }

    let mut sweeps = Sweeps {
        scale: &scale,
        exec: threads.map_or_else(SweepExec::default, SweepExec::new),
        opts: &opts,
        csv_dir: csv_dir.as_deref(),
        quiet: false,
    };

    match targets[0].as_str() {
        "cache" => {
            let op = match targets.as_slice() {
                [_, op] => op.as_str(),
                _ => usage(),
            };
            cmd_cache(op);
        }
        "list" => {
            if targets.len() > 2 {
                usage();
            }
            cmd_list(targets.get(1).map(|s| s.as_str()));
            return;
        }
        "metrics" => {
            if targets.len() > 1 {
                usage();
            }
            cmd_metrics();
            return;
        }
        "run" => {
            if targets.len() < 2 {
                usage();
            }
            let bad = cmd_run(&targets[1..], &sweeps);
            finish(bad, telemetry_path.as_deref(), &args);
        }
        "check" => {
            if targets.len() < 2 {
                usage();
            }
            cmd_check(&targets[1..]);
        }
        "topology" => {
            if targets.len() < 2 {
                usage();
            }
            cmd_topology(&targets[1..], &scale);
            return;
        }
        "docs" => {
            if targets.len() > 1 {
                usage();
            }
            let dir = out_dir
                .clone()
                .unwrap_or_else(|| PathBuf::from("docs/reference"));
            cmd_docs(&dir);
        }
        "profile" => {
            if targets.len() < 2 {
                usage();
            }
            let expanded = expand_targets(&targets[1..]);
            sweeps.quiet = true;
            run_fixed_targets(&expanded, &sweeps);
            print_profile(&expanded, scale_label);
            finish(false, telemetry_path.as_deref(), &args);
        }
        _ => {}
    }

    let expanded = expand_targets(&targets);
    run_fixed_targets(&expanded, &sweeps);
    finish(false, telemetry_path.as_deref(), &args);
}
