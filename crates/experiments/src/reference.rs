//! Self-describing reference pages, rendered from the live registries.
//!
//! `reproduce docs [--out dir]` calls [`pages`] and writes one Markdown
//! file per registry: metrics, bundled scenarios, topology components,
//! failure kinds and exit codes, env/CLI knobs, and telemetry counters.
//! Every table is generated from the same registry the runtime consults
//! ([`bps_core::metrics::registry`], [`crate::scenario::registry`],
//! [`bps_topology::VALID_COMPONENTS`], [`FailureKind::ALL`],
//! [`bps_telemetry::Counter::ALL`]), so the pages cannot drift from the
//! code: adding a metric or a counter changes the generated output, and
//! the CI `docs-fresh` job fails until the committed pages are
//! regenerated.
//!
//! Output is deterministic — no timestamps, no environment reads, no map
//! iteration order — so two runs produce byte-identical trees (pinned by
//! a test) and the CI drift gate can diff them.

use crate::scale::Scale;
use crate::scenario::{engine, registry, spec::OutputSpec};
use crate::supervise::FailureKind;
use bps_telemetry::Counter;

/// The banner every generated page opens with.
const BANNER: &str = "<!-- Generated by `reproduce docs`. Do not edit: \
regenerate with `cargo run -p bps-experiments --bin reproduce -- docs`. -->";

/// Escape a cell for a Markdown table (pipes would split the cell).
fn cell(s: &str) -> String {
    s.replace('|', "\\|")
}

/// Render all reference pages: `(file name, contents)` in index order.
pub fn pages() -> Vec<(&'static str, String)> {
    vec![
        ("index.md", index_page()),
        ("metrics.md", metrics_page()),
        ("scenarios.md", scenarios_page()),
        ("topology.md", topology_page()),
        ("failures.md", failures_page()),
        ("knobs.md", knobs_page()),
        ("telemetry.md", telemetry_page()),
    ]
}

fn index_page() -> String {
    let mut out = format!("{BANNER}\n\n# BPS reference\n\n");
    out.push_str(
        "Generated from the live registries by `reproduce docs`; the CI \
         `docs-fresh` job regenerates this tree and fails on any diff, so \
         what you read here is what the binary does.\n\n",
    );
    out.push_str("| Page | Contents |\n|---|---|\n");
    for (file, what) in [
        (
            "metrics.md",
            "every scorable metric, with direction and unit",
        ),
        (
            "scenarios.md",
            "the bundled scenarios `reproduce run` accepts",
        ),
        ("topology.md", "the declarable I/O-stack components"),
        ("failures.md", "failure kinds and process exit codes"),
        ("knobs.md", "environment variables and CLI flags"),
        (
            "telemetry.md",
            "telemetry counters and the JSONL event schema",
        ),
    ] {
        out.push_str(&format!("| [{file}]({file}) | {what} |\n"));
    }
    out
}

fn metrics_page() -> String {
    let reg = bps_core::metrics::registry();
    let mut out = format!("{BANNER}\n\n# Metrics\n\n");
    out.push_str(
        "Every name a scenario's `metrics` list, an `expect` clause, a \
         `Detail` output, or `--metrics` can use. *Direction* is the \
         correlation with execution time a faithful metric shows \
         (Table 1 of the paper).\n",
    );
    let table = |metrics: &[&dyn bps_core::metrics::MetricFold]| {
        let mut t =
            String::from("\n| Metric | Direction | Unit | Description |\n|---|---|---|---|\n");
        for m in metrics {
            let dir = match m.expected_direction() {
                bps_core::metrics::Direction::Negative => "negative",
                bps_core::metrics::Direction::Positive => "positive",
            };
            let unit = if m.unit().is_empty() { "—" } else { m.unit() };
            t.push_str(&format!(
                "| {} | {} | {} | {} |\n",
                cell(m.name()),
                dir,
                cell(unit),
                cell(m.describe())
            ));
        }
        t
    };
    out.push_str("\n## Paper metrics\n");
    out.push_str(&table(reg.paper()));
    out.push_str("\n## Extended metrics\n");
    out.push_str(&table(reg.extended()));
    out
}

fn scenarios_page() -> String {
    let mut out = format!("{BANNER}\n\n# Bundled scenarios\n\n");
    out.push_str(
        "Run any of these with `reproduce run <name>`; inspect the \
         component graph with `reproduce topology <name>`. *Cases* counts \
         the expanded grid at `--quick` scale. *Output* is `cc` (the four \
         paper metrics against execution time) or the highlighted metric \
         of a detail series.\n\n",
    );
    out.push_str(
        "| Name | Title | Output | Cases | Metrics | Checks |\n|---|---|---|---|---|---|\n",
    );
    for sc in registry::all() {
        let output = match &sc.output {
            OutputSpec::Cc => "cc".to_string(),
            OutputSpec::Detail { metric } => format!("detail: {metric}"),
        };
        let cases = engine::expand(&sc, &Scale::quick())
            .map(|c| c.len().to_string())
            .unwrap_or_else(|_| "?".to_string());
        let metrics = if sc.metrics.is_empty() {
            "paper four".to_string()
        } else {
            sc.metrics.join(", ")
        };
        let checks = match (sc.expect.len(), sc.verdict.is_some()) {
            (0, false) => "—".to_string(),
            (n, false) => format!("{n} expect"),
            (0, true) => "verdict".to_string(),
            (n, true) => format!("{n} expect + verdict"),
        };
        out.push_str(&format!(
            "| {} | {} | {} | {} | {} | {} |\n",
            cell(&sc.name),
            cell(&sc.title),
            cell(&output),
            cases,
            cell(&metrics),
            cell(&checks)
        ));
    }
    out
}

fn topology_page() -> String {
    // Keyed off the validator's own component list: a kind added there
    // without a row here renders as "(undocumented)" and fails the
    // docs-fresh gate until described.
    let describe = |kind: &str| match kind {
        "Collective" => {
            "Two-phase collective I/O marker; group size follows the workload's process count."
        }
        "Sieving" => {
            "Data sieving for noncontiguous requests. `enabled`: covering reads (ROMIO default) \
             vs. one file-system request per region."
        }
        "Prefetch" => {
            "Sequential read-ahead. `window_kb`: window fetched beyond each sequential read."
        }
        "LocalFs" => {
            "Local file system on a single server. `overhead_us`: per-call overhead \
             (`null` = profile default)."
        }
        "Pfs" => {
            "Striped parallel file system. `servers`: number of I/O servers. \
             `server_cpu_us` (optional, omitted when unset): fixed per-request server CPU \
             instead of the per-seed jittered default."
        }
        "Net" => {
            "Client/server interconnect (Gigabit Ethernet model). `loss_rate`, \
             `retransmit_delay_ms`, `record` (emit per-chunk network records)."
        }
        "Device" => {
            "The storage device on each server. `device`: `Hdd`, `Ssd`, \
             `{\"Raid0\": {\"members\": n}}`, or a constant-cost `Ram` profile. \
             `sched` (optional, omitted when unset): `Fifo` (the default) or `Elevator` \
             disk scheduling."
        }
        _ => "(undocumented)",
    };
    let mut out = format!("{BANNER}\n\n# Topology components\n\n");
    out.push_str(
        "The component kinds a scenario's `topology` list (on the base template, \
         or on a grid cell's patch for that cell alone) may declare, in \
         required stack order (middleware above file system above network \
         above device). In JSON a unit node is a bare string \
         (`\"Collective\"`) and a configured node a single-key object \
         (`{\"Pfs\": {\"servers\": 4}}`). See `reproduce topology <name>` \
         for the graph a scenario actually runs.\n\n",
    );
    out.push_str("| Component | Description |\n|---|---|\n");
    for kind in bps_topology::VALID_COMPONENTS {
        out.push_str(&format!("| {} | {} |\n", kind, cell(describe(kind))));
    }
    out
}

/// Process exit codes that are not tied to a [`FailureKind`] (those carry
/// their own). One row per code, in numeric order around the failure rows.
const FIXED_EXIT_CODES: [(i32, &str); 5] = [
    (
        0,
        "clean run: every target reproduced, every expectation held",
    ),
    (
        1,
        "expectation violations, or a non-specific failure (unknown bundled name, unwritable CSV)",
    ),
    (2, "usage error: unknown flag, subcommand, or target"),
    (7, "failure budget exceeded (`--max-failures`)"),
    (
        130,
        "interrupted (SIGINT/SIGTERM); journaled units are already flushed",
    ),
];

fn failures_page() -> String {
    let mut out = format!("{BANNER}\n\n# Failure kinds and exit codes\n\n");
    out.push_str(
        "A `(case, seed)` unit that cannot produce metrics is classified \
         into one of these kinds; the run's exit code is the worst \
         recorded kind's. `reproduce resume <journal>` replays completed \
         units after any of them.\n\n",
    );
    out.push_str("## Failure kinds\n\n| Kind | Exit code | Description |\n|---|---|---|\n");
    for k in FailureKind::ALL {
        out.push_str(&format!(
            "| {} | {} | {} |\n",
            k.name(),
            k.exit_code(),
            cell(k.describe())
        ));
    }
    out.push_str("\n## All exit codes\n\n| Code | Meaning |\n|---|---|\n");
    for (code, desc) in exit_codes() {
        out.push_str(&format!("| {code} | {} |\n", cell(&desc)));
    }
    out
}

/// Every process exit code with its meaning, in numeric order: the rows
/// of `failures.md` and of the binary's usage text.
pub fn exit_codes() -> Vec<(i32, String)> {
    let mut codes: Vec<(i32, String)> = FIXED_EXIT_CODES
        .iter()
        .map(|(c, d)| (*c, d.to_string()))
        .chain(
            FailureKind::ALL
                .iter()
                .map(|k| (k.exit_code(), format!("a unit failed: {}", k.describe()))),
        )
        .collect();
    codes.sort_by_key(|(c, _)| *c);
    codes
}

/// Environment knobs, with what they control. The single source for the
/// generated knobs page; `cargo test -p bps-experiments` cross-checks it
/// against the variables the code actually reads.
pub const ENV_KNOBS: [(&str, &str); 4] = [
    (
        "BPS_CACHE_DIR",
        "persistent case-store directory (default: the build's `target/bps-cache/`)",
    ),
    (
        "BPS_CODE_FINGERPRINT",
        "build-time stamp over every workspace source file; entries from other builds are stale",
    ),
    (
        "BPS_TEST_UNIT_PANIC",
        "test hook: panic every unit whose case label contains the value",
    ),
    (
        "BPS_TEST_UNIT_STALL",
        "test hook: `<substr>:<ms>` sleeps matching units before running",
    ),
];

/// The flags and subcommands of the `reproduce` binary, with what they
/// do: the rows of `knobs.md` and of the binary's usage text.
pub const CLI_FLAGS: [(&str, &str); 18] = [
    ("--quick | --tiny | --paper", "workload scale (default `--quick`)"),
    (
        "--csv <dir>",
        "also write each scenario run to `<dir>/<name>.csv`, named as in `reproduce list`",
    ),
    ("--threads <n>", "sweep worker count (default: machine parallelism)"),
    (
        "--metrics <a,b,c>",
        "score registry metrics (see `reproduce metrics`) for scenarios without a pinned `metrics` list",
    ),
    (
        "--journal <path>",
        "checkpoint every finished unit to an append-only JSONL file (`reproduce resume` replays it)",
    ),
    (
        "--deadline-ms <n>",
        "per-unit wall-clock deadline; a scenario's own `deadline_ms` outranks it",
    ),
    ("--max-failures <n>", "abort once more than `n` units fail (exit 7)"),
    ("--no-cache", "bypass the persistent case store for this run"),
    (
        "--telemetry <path>",
        "record phase spans, per-unit timings, and a counter snapshot to a JSONL file",
    ),
    ("list [filter]", "print the bundled scenarios, by name"),
    ("metrics", "print the metric registry"),
    ("run <name|path.json>...", "run scenarios and check their expectations"),
    ("check <name|path.json>...", "parse and expand scenarios at every scale, without running"),
    ("topology <name|path.json>...", "print the component graph a scenario's cases run"),
    ("resume <journal> [flags]", "finish a journaled run, replaying its completed units"),
    ("cache stats|verify|clear", "inspect, verify or clear the persistent case store"),
    (
        "profile <target>...",
        "run targets with telemetry on and print per-phase/per-case time and counter tables",
    ),
    ("docs [--out <dir>]", "regenerate the reference tree (default `docs/reference/`)"),
];

fn knobs_page() -> String {
    let mut out = format!("{BANNER}\n\n# Environment and CLI knobs\n\n");
    out.push_str("## Environment variables\n\n| Variable | Effect |\n|---|---|\n");
    for (name, what) in ENV_KNOBS {
        out.push_str(&format!("| `{name}` | {} |\n", cell(what)));
    }
    out.push_str(
        "\n## `reproduce` flags and subcommands\n\n| Flag or subcommand | Effect |\n|---|---|\n",
    );
    for (name, what) in CLI_FLAGS {
        out.push_str(&format!("| `{}` | {} |\n", cell(name), cell(what)));
    }
    out.push_str(
        "\nSee `failures.md` for exit codes and `reproduce --help`-equivalent \
         usage by running `reproduce` with no arguments.\n",
    );
    out
}

fn telemetry_page() -> String {
    let mut out = format!("{BANNER}\n\n# Telemetry\n\n");
    out.push_str(
        "`reproduce --telemetry out.jsonl` records one JSONL event stream; \
         `reproduce profile <target>` prints the same data as tables. \
         Collection is off by default and byte-neutral to every report: \
         every instrumentation site is a no-op until the one \
         `AtomicCollector` is installed.\n\n",
    );
    out.push_str("## Counters\n\n| Counter | Meaning |\n|---|---|\n");
    for c in Counter::ALL {
        out.push_str(&format!("| `{}` | {} |\n", c.name(), cell(c.describe())));
    }
    out.push_str(
        "\n## JSONL event schema\n\n\
         One JSON object per line, in this order:\n\n\
         | `kind` | Fields | Meaning |\n|---|---|---|\n\
         | `meta` | `version`, `args` | stream format version (1) and the run's argv |\n\
         | `phase` | `name`, `start_us`, `dur_us` | a scoped phase span (offsets from collector install, µs) |\n\
         | `unit` | `case`, `seed`, `start_us`, `dur_us` | one sweep unit: a single (case, seed) simulation |\n\
         | `counters` | `counters` (object) | final snapshot: every counter above, in registry order |\n\n\
         `phase` and `unit` lines appear interleaved in completion order; \
         the single `counters` line is always last. Counter values are \
         monotone over a run and identical in meaning at any thread \
         count, but span timings are wall-clock and vary run to run.\n",
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pages_are_deterministic_and_banner_stamped() {
        let a = pages();
        let b = pages();
        assert_eq!(a, b, "two renders must be byte-identical");
        assert_eq!(a.len(), 7);
        for (name, text) in &a {
            assert!(text.starts_with(BANNER), "{name} missing banner");
            assert!(text.contains('#'), "{name} has no heading");
        }
    }

    #[test]
    fn every_component_is_documented() {
        let topo = topology_page();
        for kind in bps_topology::VALID_COMPONENTS {
            assert!(topo.contains(&format!("| {kind} |")), "missing {kind}");
        }
        assert!(
            !topo.contains("(undocumented)"),
            "a topology component lacks a description"
        );
    }

    #[test]
    fn every_registry_entry_appears() {
        let m = metrics_page();
        let reg = bps_core::metrics::registry();
        for metric in reg.paper().iter().chain(reg.extended()) {
            assert!(
                m.contains(&format!("| {} |", metric.name())),
                "{}",
                metric.name()
            );
        }
        let s = scenarios_page();
        for sc in registry::all() {
            assert!(s.contains(&format!("| {} |", sc.name)), "{}", sc.name);
        }
        let t = telemetry_page();
        for c in Counter::ALL {
            assert!(t.contains(&format!("`{}`", c.name())), "{}", c.name());
        }
        let f = failures_page();
        for k in FailureKind::ALL {
            assert!(f.contains(&format!("| {} |", k.name())), "{}", k.name());
        }
    }

    /// Every `.rs` file under `dir`, recursively.
    fn rust_files(dir: &std::path::Path, out: &mut Vec<std::path::PathBuf>) {
        for entry in std::fs::read_dir(dir).expect("readable source directory") {
            let path = entry.expect("directory entry").path();
            if path.is_dir() {
                rust_files(&path, out);
            } else if path.extension().is_some_and(|x| x == "rs") {
                out.push(path);
            }
        }
    }

    #[test]
    fn env_knob_table_matches_the_code() {
        // The `BPS_*` variables the non-test part of `crates/*/src` (each
        // file up to its first `#[cfg(test)]`) reads, at run time through
        // `env::var` or at build time through `env!`, are exactly the
        // documented ones.
        let crates = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .parent()
            .expect("crates directory");
        let mut files = Vec::new();
        for krate in std::fs::read_dir(crates).expect("readable crates directory") {
            let src = krate.expect("directory entry").path().join("src");
            if src.is_dir() {
                rust_files(&src, &mut files);
            }
        }
        let mut read: Vec<String> = Vec::new();
        for file in &files {
            let text = std::fs::read_to_string(file).expect("readable source file");
            let code = text.split("#[cfg(test)]").next().unwrap_or_default();
            for pattern in ["env::var(\"BPS_", "env!(\"BPS_"] {
                for (at, _) in code.match_indices(pattern) {
                    let name = &code[at + pattern.len() - 4..];
                    let name = &name[..name.find('"').expect("closed string literal")];
                    if !read.iter().any(|r| r == name) {
                        read.push(name.to_string());
                    }
                }
            }
        }
        read.sort();
        let mut documented: Vec<String> = ENV_KNOBS.iter().map(|(n, _)| n.to_string()).collect();
        documented.sort();
        assert_eq!(
            read, documented,
            "ENV_KNOBS must list exactly the variables the code reads"
        );
    }
}
