//! Expanding and running a [`Scenario`].
//!
//! The pipeline is the same for every experiment, bundled or
//! user-authored:
//!
//! 1. [`expand`] — cross the case grid, merge each cell's patches onto
//!    the base template, and resolve every [`Num`](super::spec::Num)
//!    against the scale preset. The result is a list of pure-data
//!    [`ResolvedCase`]s: deterministic, thread-count-independent, and
//!    checkable without running anything.
//! 2. [`run_with_opts`], the one runner — serve what the case memo and
//!    store already hold, run every remaining `(case, seed)` unit through
//!    the one supervised executor
//!    ([`run_supervised`](crate::supervise::run_supervised) on
//!    [`SweepExec`](crate::sweep::SweepExec)'s thread count) under the
//!    caller's [`RunOpts`], average each case with
//!    [`CasePoint::from_units`], and score the points into a
//!    [`ScenarioOutput`].
//! 3. [`violations`] — compare a scored CC figure against the scenario's
//!    Table-1 expectations and verdict.

use super::spec::{
    DeviceErrorSpec, Expect, FaultSpec, LayoutSpec, OutputSpec, Patch, RetrySpec, Scenario,
    SievingSpec, StorageSpec, Verdict, WorkloadTemplate,
};
use crate::figures::common::{CcFigure, DetailSeries};
use crate::figures::faults::DegradedMix;
use crate::runner::{CasePoint, CaseSpec};
use crate::scale::Scale;
use crate::sweep::SweepExec;
use bps_core::metrics::{registry, MetricSelection};
use bps_core::time::{Dur, Nanos};
use bps_middleware::sieving::SievingConfig;
use bps_middleware::stack::RetryPolicy;
use bps_sim::fault::{FaultPlan, Outage};
use bps_workloads::spec::Workload;
use bps_workloads::WorkloadSpec;
use std::collections::HashMap;
use std::fmt;
use std::path::Path;
use std::sync::{Mutex, OnceLock};

/// What class of problem an [`EngineError`] is — mapped by the
/// `reproduce` CLI onto distinct exit codes (invalid-spec 3, io 4).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineErrorKind {
    /// The scenario itself is wrong: bad JSON, an invalid grid, a patch
    /// that does not apply, an unknown metric, an unbuildable workload.
    InvalidSpec,
    /// The environment failed: an unreadable scenario file.
    Io,
}

/// Error expanding or running a scenario: an invalid grid, a patch that
/// does not apply to the base workload, an unbuildable workload spec, or
/// an unreadable scenario file.
#[derive(Debug)]
pub struct EngineError {
    kind: EngineErrorKind,
    msg: String,
}

impl EngineError {
    /// The failure class (drives the CLI exit code).
    pub fn kind(&self) -> EngineErrorKind {
        self.kind
    }
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.msg)
    }
}

impl std::error::Error for EngineError {}

fn err(msg: impl fmt::Display) -> EngineError {
    EngineError {
        kind: EngineErrorKind::InvalidSpec,
        msg: msg.to_string(),
    }
}

fn err_io(msg: impl fmt::Display) -> EngineError {
    EngineError {
        kind: EngineErrorKind::Io,
        msg: msg.to_string(),
    }
}

/// The workload of a fully expanded case.
#[derive(Debug, Clone, PartialEq)]
pub enum ResolvedWorkload {
    /// A concrete generator description.
    Spec(WorkloadSpec),
    /// The Set 5 degraded-mode mix (sized from the scale at build time).
    DegradedMix,
}

/// One fully expanded case: every knob concrete, no scale references
/// left. Pure data — expansion never runs the simulator, so `reproduce
/// check` can validate a scenario file without paying for a sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct ResolvedCase {
    /// The case label ("hdd", "64KB", "np=4/gap=8B", ...).
    pub label: String,
    /// Storage under test.
    pub storage: StorageSpec,
    /// Layout policy.
    pub layout: LayoutSpec,
    /// Sieving configuration.
    pub sieving: SievingSpec,
    /// Retry policy.
    pub retry: RetrySpec,
    /// Fault plan; `None` = healthy cluster.
    pub fault: Option<FaultSpec>,
    /// Per-op CPU cost, microseconds.
    pub cpu_per_op_us: u64,
    /// Client node count; `None` = one per workload process.
    pub clients: Option<usize>,
    /// Explicit component graph; `None` = the prebuilt graph derived
    /// from `storage`.
    pub topology: Option<bps_topology::TopologySpec>,
    /// The workload.
    pub workload: ResolvedWorkload,
}

impl ResolvedCase {
    /// The component graph this case actually runs: the explicit
    /// `topology` when the scenario declares one, otherwise the prebuilt
    /// graph derived from `storage`.
    pub fn effective_topology(&self) -> bps_topology::TopologySpec {
        self.topology
            .clone()
            .unwrap_or_else(|| self.storage.default_topology())
    }

    /// One-line workload description for display (`reproduce topology`).
    pub fn workload_summary(&self) -> String {
        match &self.workload {
            ResolvedWorkload::Spec(w) => w.summary(),
            ResolvedWorkload::DegradedMix => "degraded-mode mix (sized from scale)".to_string(),
        }
    }
}

/// Apply one grid patch to a workload template. Workload-shaping fields
/// (`record_size`, `processes`, `region_spacing`) only apply to templates
/// that have them; patching anything else is an error, so a typo'd
/// scenario file fails loudly instead of silently running the base case.
fn patch_workload(
    base: &WorkloadTemplate,
    patch: &Patch,
    label: &str,
) -> Result<WorkloadTemplate, EngineError> {
    use super::spec::Num;
    let mut w = base.clone();
    let inapplicable = |field: &str, template: &str| {
        Err(err(format!(
            "case `{label}`: patch field `{field}` does not apply to the {template} workload \
             template"
        )))
    };
    if let Some(rs) = patch.record_size {
        match &mut w {
            WorkloadTemplate::Iozone { record_size, .. } => *record_size = Num::Abs { n: rs },
            WorkloadTemplate::Fixed { .. } => return inapplicable("record_size", "Fixed"),
            WorkloadTemplate::IorShared { .. } => return inapplicable("record_size", "IorShared"),
            WorkloadTemplate::Hpio { .. } => return inapplicable("record_size", "Hpio"),
            WorkloadTemplate::DegradedMix => return inapplicable("record_size", "DegradedMix"),
        }
    }
    if let Some(gap) = patch.region_spacing {
        match &mut w {
            WorkloadTemplate::Hpio { region_spacing, .. } => *region_spacing = Num::Abs { n: gap },
            WorkloadTemplate::Fixed { .. } => return inapplicable("region_spacing", "Fixed"),
            WorkloadTemplate::Iozone { .. } => return inapplicable("region_spacing", "Iozone"),
            WorkloadTemplate::IorShared { .. } => {
                return inapplicable("region_spacing", "IorShared")
            }
            WorkloadTemplate::DegradedMix => return inapplicable("region_spacing", "DegradedMix"),
        }
    }
    if let Some(np) = patch.processes {
        match &mut w {
            WorkloadTemplate::Iozone { processes, .. }
            | WorkloadTemplate::IorShared { processes, .. }
            | WorkloadTemplate::Hpio { processes, .. } => *processes = np,
            WorkloadTemplate::Fixed { .. } => return inapplicable("processes", "Fixed"),
            WorkloadTemplate::DegradedMix => return inapplicable("processes", "DegradedMix"),
        }
    }
    Ok(w)
}

/// Resolve a patched template's `Num` expressions into a concrete
/// workload description.
fn resolve_workload(w: &WorkloadTemplate, scale: &Scale) -> ResolvedWorkload {
    match w.clone() {
        WorkloadTemplate::Fixed { spec } => ResolvedWorkload::Spec(spec),
        WorkloadTemplate::Iozone {
            mode,
            file_size,
            record_size,
            processes,
            seed,
        } => ResolvedWorkload::Spec(WorkloadSpec::Iozone {
            mode,
            file_size: file_size.resolve(scale, processes),
            record_size: record_size.resolve(scale, processes),
            processes,
            seed,
        }),
        WorkloadTemplate::IorShared {
            file_size,
            transfer_size,
            write,
            processes,
        } => ResolvedWorkload::Spec(WorkloadSpec::Ior {
            file_size: file_size.resolve(scale, processes),
            transfer_size,
            processes,
            write,
        }),
        WorkloadTemplate::Hpio {
            region_count,
            region_size,
            region_spacing,
            regions_per_call,
            processes,
            collective,
        } => ResolvedWorkload::Spec(WorkloadSpec::Hpio {
            region_count: region_count.resolve(scale, processes),
            region_size,
            region_spacing: region_spacing.resolve(scale, processes),
            regions_per_call: regions_per_call.resolve(scale, processes),
            processes,
            collective,
        }),
        WorkloadTemplate::DegradedMix => ResolvedWorkload::DegradedMix,
    }
}

/// Expand a scenario's case grid against a scale preset.
///
/// The grid is the cross product of its dimensions, row-major (later
/// dimensions vary fastest); labels join with `/`; later dimensions'
/// patches override earlier ones on conflicting fields. The output is
/// identical at any `BPS_THREADS` setting — expansion is single-threaded
/// pure data flow.
pub fn expand(scenario: &Scenario, scale: &Scale) -> Result<Vec<ResolvedCase>, EngineError> {
    if scenario.grid.dims.is_empty() {
        return Err(err(format!(
            "scenario `{}`: grid has no dimensions",
            scenario.name
        )));
    }
    // Every metric name a scenario can mention — the `metrics` selection,
    // a Detail output's highlighted metric, and each expectation — must
    // resolve in the registry, so `reproduce check` catches typos without
    // running anything.
    for name in &scenario.metrics {
        if registry().find(name).is_none() {
            return Err(err(format!(
                "scenario `{}`: unknown metric `{name}` (valid metrics: {})",
                scenario.name,
                registry().listing()
            )));
        }
    }
    if let OutputSpec::Detail { metric } = &scenario.output {
        if registry().find(metric).is_none() {
            return Err(err(format!(
                "scenario `{}`: unknown detail metric `{metric}` (valid metrics: {})",
                scenario.name,
                registry().listing()
            )));
        }
    }
    for e in &scenario.expect {
        if registry().find(&e.metric).is_none() {
            return Err(err(format!(
                "scenario `{}`: expectation names unknown metric `{}` (valid metrics: {})",
                scenario.name,
                e.metric,
                registry().listing()
            )));
        }
    }
    // Zero would time out every unit; the CLI rejects `--deadline-ms 0`
    // for the same reason.
    if scenario.deadline_ms == Some(0) {
        return Err(err(format!(
            "scenario `{}`: `deadline_ms` must be a positive number of milliseconds, got 0",
            scenario.name
        )));
    }
    // An explicit component graph must be structurally sound before
    // anything runs, mirroring the metric checks above.
    if let Some(topology) = &scenario.base.topology {
        topology
            .validate()
            .map_err(|e| err(format!("scenario `{}`: {e}", scenario.name)))?;
    }
    // Cross the dimensions into (label, patches-in-dimension-order).
    let mut combos: Vec<(String, Vec<&Patch>)> = vec![(String::new(), Vec::new())];
    for (d, dim) in scenario.grid.dims.iter().enumerate() {
        if dim.is_empty() {
            return Err(err(format!(
                "scenario `{}`: grid dimension {d} is empty",
                scenario.name
            )));
        }
        let mut next = Vec::with_capacity(combos.len() * dim.len());
        for (label, patches) in &combos {
            for cell in dim {
                let label = if label.is_empty() {
                    cell.label.clone()
                } else {
                    format!("{label}/{}", cell.label)
                };
                let mut patches = patches.clone();
                patches.push(&cell.patch);
                next.push((label, patches));
            }
        }
        combos = next;
    }
    let base = &scenario.base;
    let mut cases = Vec::with_capacity(combos.len());
    for (label, patches) in combos {
        let mut storage = base.storage;
        let mut layout = base.layout.unwrap_or(LayoutSpec::DefaultStripe);
        let mut fault = base.fault.clone();
        let mut topology = base.topology.clone();
        let mut workload = base.workload.clone();
        for patch in patches {
            if let Some(s) = patch.storage {
                storage = s;
            }
            if let Some(l) = patch.layout {
                layout = l;
            }
            if let Some(f) = &patch.fault {
                fault = Some(f.clone());
            }
            if let Some(t) = &patch.topology {
                t.validate()
                    .map_err(|e| err(format!("case `{label}`: {e}")))?;
                topology = Some(t.clone());
            }
            workload = patch_workload(&workload, patch, &label)?;
        }
        let workload = resolve_workload(&workload, scale);
        if let ResolvedWorkload::Spec(spec) = &workload {
            // Surface invalid specs at expansion time; `build` re-checks.
            spec.build()
                .map_err(|e| err(format!("case `{label}`: {e}")))?;
        }
        let case = ResolvedCase {
            label,
            storage,
            layout,
            sieving: base.sieving.unwrap_or(SievingSpec::RomioDefault),
            retry: base.retry.unwrap_or(RetrySpec::Default),
            fault,
            cpu_per_op_us: base.cpu_per_op_us.unwrap_or(5),
            clients: base.clients,
            topology,
            workload,
        };
        check_durations(&case)
            .and_then(|()| check_faults(&case))
            .map_err(|e| err(format!("case `{}`: {e}", case.label)))?;
        cases.push(case);
    }
    Ok(cases)
}

/// Reject a case whose durations do not fit the engine's 64-bit
/// nanoseconds: `Dur`/`Nanos` would wrap in a release build and panic in
/// a debug one, so the run would report nonsense or fail every unit.
fn check_durations(c: &ResolvedCase) -> Result<(), String> {
    const NS_PER_US: u64 = 1_000;
    const NS_PER_MS: u64 = 1_000_000;
    let fits = |value: Option<u64>, ns_per_unit: u64, what: &str| match value
        .and_then(|v| v.checked_mul(ns_per_unit))
    {
        Some(_) => Ok(()),
        None => Err(format!("{what} overflows 64-bit nanoseconds")),
    };
    fits(Some(c.cpu_per_op_us), NS_PER_US, "`cpu_per_op_us`")?;
    if let RetrySpec::Custom {
        base_backoff_us,
        max_backoff_us,
        ..
    } = c.retry
    {
        fits(Some(base_backoff_us), NS_PER_US, "retry `base_backoff_us`")?;
        fits(Some(max_backoff_us), NS_PER_US, "retry `max_backoff_us`")?;
    }
    let Some(fault) = &c.fault else {
        return Ok(());
    };
    if let Some(ll) = &fault.link_loss {
        let ms = Some(ll.retransmit_delay_ms);
        fits(ms, NS_PER_MS, "link loss `retransmit_delay_ms`")?;
    }
    for (i, t) in fault.outage_trains.iter().enumerate() {
        // The last cycle's end is the latest instant `build_fault` computes.
        let Some(last) = t.cycles.checked_sub(1) else {
            continue;
        };
        let end_ms = t
            .period_ms
            .checked_mul(last)
            .and_then(|ms| ms.checked_add(10))
            .and_then(|ms| ms.checked_add(t.phase_ms))
            .and_then(|ms| ms.checked_add(t.width_ms));
        let what =
            format!("outage train {i}: `10 + period_ms * (cycles - 1) + phase_ms + width_ms`");
        fits(end_ms, NS_PER_MS, &what)?;
    }
    Ok(())
}

/// The largest product of one server's slowdown factors: past it a
/// scaled service time saturates and the device queue's clock wraps
/// (DESIGN.md §9).
const MAX_SLOWDOWN: f64 = 1_000.0;

/// Reject a fault plan that `build_fault` would refuse (a slowdown
/// factor that is not positive, an error or loss rate outside [0, 1]),
/// whose slowdown factors on one server multiply past [`MAX_SLOWDOWN`],
/// or that names a server the case's stack does not have, which the run
/// would silently ignore.
fn check_faults(c: &ResolvedCase) -> Result<(), String> {
    let Some(fault) = &c.fault else {
        return Ok(());
    };
    let servers = c
        .effective_topology()
        .nodes()
        .iter()
        .find_map(|n| match n {
            bps_topology::NodeSpec::Pfs { servers, .. } => Some(*servers),
            _ => None,
        })
        .unwrap_or(1);
    let on_a_server = |what: &str, server: usize| {
        if server < servers {
            Ok(())
        } else {
            Err(format!(
                "{what} names server {server}, but the stack has {servers} server(s)"
            ))
        }
    };
    let probability = |what: &str, rate: f64| {
        if (0.0..=1.0).contains(&rate) {
            Ok(())
        } else {
            Err(format!("{what}: `rate` must be in [0, 1], got {rate}"))
        }
    };
    for (i, s) in fault.slowdowns.iter().enumerate() {
        let what = format!("fault slowdown {i}");
        if !(s.factor.is_finite() && s.factor > 0.0) {
            return Err(format!(
                "{what}: `factor` must be positive and finite, got {}",
                s.factor
            ));
        }
        on_a_server(&what, s.server)?;
        // The server's factors in plan order, as `FaultInjector::new`
        // multiplies them.
        let on_server = fault.slowdowns.iter().filter(|t| t.server == s.server);
        let product: f64 = on_server.map(|t| t.factor).product();
        if product > MAX_SLOWDOWN {
            return Err(format!(
                "{what}: the factors on server {} multiply to {product:e}, past {MAX_SLOWDOWN}",
                s.server
            ));
        }
    }
    for (i, d) in fault.device_errors.iter().enumerate() {
        let what = format!("fault device error {i}");
        match *d {
            DeviceErrorSpec::Uniform { rate } => probability(&what, rate)?,
            DeviceErrorSpec::Server { server, rate } => {
                probability(&what, rate)?;
                on_a_server(&what, server)?;
            }
        }
    }
    if let Some(ll) = &fault.link_loss {
        probability("fault link loss", ll.rate)?;
    }
    for (i, t) in fault.outage_trains.iter().enumerate() {
        on_a_server(&format!("fault outage train {i}"), t.server)?;
    }
    Ok(())
}

/// Build a concrete [`FaultPlan`] from its declarative form, applying the
/// pieces in field order (slowdowns, device errors, link loss, outage
/// trains) exactly as the hand-built plans chained their builders.
pub fn build_fault(spec: &FaultSpec) -> FaultPlan {
    let mut plan = FaultPlan {
        seed: spec.seed,
        ..FaultPlan::none()
    };
    for &s in &spec.slowdowns {
        plan = plan.with_slowdown(s);
    }
    for d in &spec.device_errors {
        plan = match *d {
            DeviceErrorSpec::Uniform { rate } => plan.with_device_errors(rate),
            DeviceErrorSpec::Server { server, rate } => plan.with_device_errors_on(server, rate),
        };
    }
    if let Some(ll) = &spec.link_loss {
        plan = plan.with_link_loss(ll.rate, Dur::from_millis(ll.retransmit_delay_ms));
    }
    for t in &spec.outage_trains {
        for cycle in 0..t.cycles {
            let start = 10 + t.period_ms * cycle + t.phase_ms;
            plan = plan.with_outage(Outage {
                server: t.server,
                start: Nanos::from_millis(start),
                end: Nanos::from_millis(start + t.width_ms),
            });
        }
    }
    plan
}

fn build_workload(w: &ResolvedWorkload, scale: &Scale) -> Result<Box<dyn Workload>, EngineError> {
    match w {
        ResolvedWorkload::Spec(spec) => spec.build().map_err(err),
        ResolvedWorkload::DegradedMix => Ok(Box::new(DegradedMix::from_scale(scale))),
    }
}

/// The scored result of a scenario run.
#[derive(Debug, Clone)]
pub enum ScenarioOutput {
    /// A CC bar chart (the scenario's `output` was [`OutputSpec::Cc`]).
    Cc(CcFigure),
    /// A detail series ([`OutputSpec::Detail`]).
    Detail(DetailSeries),
}

impl ScenarioOutput {
    /// The CC figure, if this output is one.
    pub fn as_cc(&self) -> Option<&CcFigure> {
        match self {
            ScenarioOutput::Cc(fig) => Some(fig),
            ScenarioOutput::Detail(_) => None,
        }
    }

    /// The CC figure, panicking on a detail output (for callers that know
    /// the scenario's output kind statically — the bundled figures).
    pub fn into_cc(self) -> CcFigure {
        match self {
            ScenarioOutput::Cc(fig) => fig,
            ScenarioOutput::Detail(s) => panic!("scenario produced a detail series: {}", s.label),
        }
    }
}

impl fmt::Display for ScenarioOutput {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScenarioOutput::Cc(fig) => fig.fmt(f),
            ScenarioOutput::Detail(s) => s.fmt(f),
        }
    }
}

/// Process-lifetime cache of scored case results, keyed by the full
/// simulation-relevant content of a resolved case plus the scale preset.
///
/// Figures share cases — the common baseline points of fig04/fig05/fig09,
/// and `reproduce all`'s summary re-running every CC figure — and a
/// [`ResolvedCase`] (minus its per-figure label) together with the
/// [`Scale`] determines the simulated runs exactly: the workload build,
/// cluster construction, and seed list are all pure functions of them. So
/// a shared case simulates once per process and every later occurrence is
/// a lookup. Library callers can bypass it through [`run_with_opts`]'s
/// `memo_on`.
fn memo_cache() -> &'static Mutex<HashMap<String, CasePoint>> {
    static MEMO: OnceLock<Mutex<HashMap<String, CasePoint>>> = OnceLock::new();
    MEMO.get_or_init(Default::default)
}

/// The metric selection a scenario run computes and reports: the
/// scenario's `metrics` list if non-empty, else the caller's
/// [`RunOpts::metrics`], else the paper four — always unioned with any
/// metric the output or an expectation references, so scoring never
/// misses a value it needs.
fn effective_selection(
    scenario: &Scenario,
    opts: &RunOpts,
) -> Result<MetricSelection, EngineError> {
    let base = if !scenario.metrics.is_empty() {
        MetricSelection::parse(&scenario.metrics)
    } else if let Some(names) = &opts.metrics {
        MetricSelection::parse(names)
    } else {
        Ok(MetricSelection::paper())
    }
    .map_err(|e| err(format!("scenario `{}`: {e}", scenario.name)))?;
    let mut referenced: Vec<&str> = Vec::new();
    if let OutputSpec::Detail { metric } = &scenario.output {
        referenced.push(metric);
    }
    referenced.extend(scenario.expect.iter().map(|e| e.metric.as_str()));
    base.with_names(&referenced)
        .map_err(|e| err(format!("scenario `{}`: {e}", scenario.name)))
}

/// Content key of a case: every field that feeds the simulation, with the
/// display label — which legitimately differs between figures sharing a
/// case — stripped out.
fn case_key(case: &ResolvedCase, scale: &Scale, selection: &MetricSelection) -> String {
    let mut c = case.clone();
    c.label.clear();
    // Scale is included because DegradedMix workloads and the seed list
    // are derived from it at run time; the metric selection because a
    // cached point only carries the extras it was scored with.
    format!("{c:?}|{scale:?}|{:?}", selection.names())
}

/// Public form of [`case_key`]: the exact content key the two-level
/// case cache and the run journal index by. Exposed so the key-collision
/// audit (`tests/prop_cache.rs`) can check that specs differing in any
/// simulation-feeding field never share a key.
pub fn content_key(case: &ResolvedCase, scale: &Scale, selection: &MetricSelection) -> String {
    case_key(case, scale, selection)
}

/// Build a runnable [`CaseSpec`] from a resolved case and its built
/// workload.
fn case_spec<'a>(c: &ResolvedCase, w: &'a dyn Workload) -> CaseSpec<'a> {
    let mut spec = CaseSpec::new(c.storage, w);
    spec.layout = c.layout;
    spec.sieving = match c.sieving {
        SievingSpec::RomioDefault => SievingConfig::romio_default(),
        SievingSpec::Disabled => SievingConfig::disabled(),
    };
    spec.retry = match c.retry {
        RetrySpec::Default => RetryPolicy::default(),
        RetrySpec::Custom {
            max_attempts,
            base_backoff_us,
            max_backoff_us,
        } => RetryPolicy {
            max_attempts,
            base_backoff: Dur::from_micros(base_backoff_us),
            max_backoff: Dur::from_micros(max_backoff_us),
            timeout: None,
        },
    };
    spec.cpu_per_op = Dur::from_micros(c.cpu_per_op_us);
    if let Some(f) = &c.fault {
        spec.fault = build_fault(f);
    }
    if let Some(clients) = c.clients {
        spec.clients = clients;
    }
    spec.topology = c.topology.clone();
    spec
}

/// The options of one run, built once by `reproduce` from its flags and
/// passed down to every scenario it runs: the metric selection, the
/// journal to replay/record, the per-unit wall-clock deadline, and the
/// failure budget. A scenario's own `metrics` list and `deadline_ms`
/// outrank the matching fields here. The default (all `None`) scores the
/// paper four and runs every unit once on the scoped pool, isolating
/// failures without a journal, deadline or budget.
#[derive(Default, Clone)]
pub struct RunOpts {
    /// Metric names (`--metrics`) for scenarios without a `metrics` list.
    pub metrics: Option<Vec<String>>,
    /// Journal to replay completed units from and record fresh units to;
    /// an early exit names it in the `reproduce resume` hint.
    pub journal: Option<std::sync::Arc<crate::journal::Journal>>,
    /// Per-unit wall-clock deadline.
    pub deadline: Option<std::time::Duration>,
    /// Abort the run (exit 7) once more than this many units fail.
    pub max_failures: Option<usize>,
}

/// Run the missing cases through the supervised executor: one
/// [`UnitTask`](crate::supervise::UnitTask) per `(case, seed)`, journal
/// replay for units already on disk, journal append for fresh ones, and
/// the per-unit deadline when one is set. Each unit's values are
/// captured as it finishes and averaged in seed order, so the output is
/// byte-identical at any thread count, journaled or not.
fn run_cases(
    resolved: &[ResolvedCase],
    missing: &[usize],
    keys: &[String],
    scale: &Scale,
    selection: &MetricSelection,
    exec: SweepExec,
    opts: &RunOpts,
) -> (Vec<CasePoint>, Vec<crate::supervise::UnitFailure>) {
    use crate::runner::UnitValues;
    use crate::supervise::{self, FailureKind, UnitOutcome, UnitTask};
    use std::sync::Arc;

    let seeds = scale.seeds();
    let selection = Arc::new(selection.clone());
    let mut outcomes: Vec<Vec<Option<UnitOutcome>>> = vec![vec![None; seeds.len()]; missing.len()];
    let mut tasks: Vec<UnitTask> = Vec::new();
    let mut task_pos: Vec<(usize, usize)> = Vec::new();
    for (mi, &i) in missing.iter().enumerate() {
        let case = Arc::new(resolved[i].clone());
        for (si, &seed) in seeds.iter().enumerate() {
            let key = if opts.journal.is_some() {
                format!("{}#{seed}", keys[i])
            } else {
                String::new()
            };
            if let Some(journal) = &opts.journal {
                if let Some(values) = journal.lookup(&key) {
                    outcomes[mi][si] = Some(UnitOutcome::Done(values));
                    continue;
                }
            }
            let case = case.clone();
            let selection = selection.clone();
            let scale = *scale;
            let label = resolved[i].label.clone();
            task_pos.push((mi, si));
            tasks.push(UnitTask {
                label: resolved[i].label.clone(),
                seed,
                key,
                work: Arc::new(move || {
                    supervise::apply_test_hooks(&label);
                    let workload = build_workload(&case.workload, &scale)
                        .map_err(|e| (FailureKind::InvalidSpec, e.to_string()))?;
                    let spec = case_spec(&case, workload.as_ref());
                    let run = crate::runner::run_case_streaming_selected(&spec, seed, &selection);
                    Ok(UnitValues::capture(&run, &selection))
                }),
            });
        }
    }
    let fresh = supervise::run_supervised(tasks, exec, opts);
    for ((mi, si), outcome) in task_pos.into_iter().zip(fresh) {
        outcomes[mi][si] = Some(outcome);
    }

    let mut points = Vec::with_capacity(missing.len());
    let mut failures = Vec::new();
    for (mi, &i) in missing.iter().enumerate() {
        let label = &resolved[i].label;
        let mut units: Vec<UnitValues> = Vec::with_capacity(seeds.len());
        let mut kinds: Vec<FailureKind> = Vec::new();
        for (si, &seed) in seeds.iter().enumerate() {
            match outcomes[mi][si]
                .take()
                .expect("every (case, seed) unit replayed or executed")
            {
                UnitOutcome::Done(values) => units.push(values),
                UnitOutcome::Failed(kind, detail) => {
                    kinds.push(kind);
                    failures.push(crate::supervise::UnitFailure {
                        kind,
                        case: label.clone(),
                        seed,
                        detail,
                    });
                }
            }
        }
        let mut point = CasePoint::from_units(label.clone(), &units, &selection);
        if units.is_empty() {
            point.failed = FailureKind::worst(kinds);
        }
        points.push(point);
    }
    (points, failures)
}

/// Expand, run and score a scenario on `exec` under `opts`, serving and
/// filling the case memo when `memo_on`. The output is byte-identical at
/// any thread count, journaled or not. The scenario's own `deadline_ms`
/// outranks `opts.deadline`, as its `metrics` list outranks
/// `opts.metrics`.
pub fn run_with_opts(
    scenario: &Scenario,
    scale: &Scale,
    exec: SweepExec,
    memo_on: bool,
    opts: &RunOpts,
) -> Result<ScenarioOutput, EngineError> {
    let resolved = {
        let _span = bps_telemetry::phase("engine.expand");
        expand(scenario, scale)?
    };
    let selection = effective_selection(scenario, opts)?;
    let cache_span = bps_telemetry::phase("engine.cache-lookup");

    // Serve cases already simulated this process from the memo; only the
    // rest pay for workload construction and the sweep. The relative order
    // of the missing cases is their input order, so the simulated results
    // are bit-identical to an unmemoized run.
    let mut points: Vec<Option<CasePoint>> = vec![None; resolved.len()];
    // Case keys feed both the memo and the journal (journal unit keys are
    // `<case-key>#<seed>`), so either consumer computes them.
    let keys: Vec<String> = if memo_on || opts.journal.is_some() {
        resolved
            .iter()
            .map(|c| case_key(c, scale, &selection))
            .collect()
    } else {
        Vec::new()
    };
    if memo_on {
        let cache = memo_cache().lock().expect("memo cache poisoned");
        for (i, key) in keys.iter().enumerate() {
            if let Some(cached) = cache.get(key) {
                let mut p = cached.clone();
                p.label = resolved[i].label.clone();
                points[i] = Some(p);
            }
        }
    }
    let missing: Vec<usize> = (0..resolved.len())
        .filter(|&i| points[i].is_none())
        .collect();
    if memo_on {
        bps_telemetry::add(
            bps_telemetry::Counter::CacheL1Hits,
            (resolved.len() - missing.len()) as u64,
        );
        bps_telemetry::add(bps_telemetry::Counter::CacheL1Misses, missing.len() as u64);
    }

    // The persistent store (L2) serves cases simulated by *any* process
    // of this build; hits are promoted into the in-process memo (L1) so
    // later figures sharing the case skip the disk read. A missing,
    // stale, or corrupt entry is simply a miss — the case simulates.
    let disk = if memo_on {
        crate::scenario::store::active()
    } else {
        None
    };
    let missing: Vec<usize> = if let Some(store) = &disk {
        let mut still = Vec::with_capacity(missing.len());
        for &i in &missing {
            match store.lookup(&keys[i]) {
                Some(mut p) => {
                    memo_cache()
                        .lock()
                        .expect("memo cache poisoned")
                        .insert(keys[i].clone(), p.clone());
                    p.label = resolved[i].label.clone();
                    points[i] = Some(p);
                }
                None => still.push(i),
            }
        }
        still
    } else {
        missing
    };
    drop(cache_span);

    if !missing.is_empty() {
        let _span = bps_telemetry::phase("engine.sweep");
        let opts = &RunOpts {
            deadline: scenario
                .deadline_ms
                .map(std::time::Duration::from_millis)
                .or(opts.deadline),
            ..opts.clone()
        };
        let (fresh, failures) =
            run_cases(&resolved, &missing, &keys, scale, &selection, exec, opts);
        for failure in &failures {
            eprintln!("warning: sweep unit failed: {failure}");
        }
        crate::supervise::record_failures(failures);
        if memo_on {
            let mut cache = memo_cache().lock().expect("memo cache poisoned");
            for (&i, p) in missing.iter().zip(&fresh) {
                cache.insert(keys[i].clone(), p.clone());
                // `insert` itself skips failed points — a timeout here
                // says nothing about the next machine.
                if let Some(store) = &disk {
                    store.insert(&keys[i], p);
                }
            }
        }
        for (&i, p) in missing.iter().zip(fresh) {
            points[i] = Some(p);
        }
    }
    let points: Vec<CasePoint> = points
        .into_iter()
        .map(|p| p.expect("every case scored"))
        .collect();
    let _span = bps_telemetry::phase("engine.score");
    Ok(match &scenario.output {
        OutputSpec::Cc => ScenarioOutput::Cc(CcFigure::from_points_selected(
            scenario.title.clone(),
            points,
            &selection,
        )),
        OutputSpec::Detail { metric } => {
            // Canonicalize the user-written name ("p99" → "P99") so the
            // rendered series header matches the registry.
            let canon = registry()
                .find(metric)
                .map(|m| m.name())
                .unwrap_or(metric.as_str());
            ScenarioOutput::Detail(DetailSeries::from_points(
                scenario.title.clone(),
                canon,
                &points,
            ))
        }
    })
}

/// Check a scored output against the scenario's expectations and verdict;
/// returns one line per violation (empty = everything holds).
pub fn violations(
    output: &ScenarioOutput,
    expect: &[Expect],
    verdict: Option<Verdict>,
) -> Vec<String> {
    let mut out = Vec::new();
    let fig = match output {
        ScenarioOutput::Cc(fig) => fig,
        ScenarioOutput::Detail(_) => {
            if !expect.is_empty() || verdict.is_some() {
                out.push("detail output has no CC rows to check expectations against".to_string());
            }
            return out;
        }
    };
    for e in expect {
        match fig.direction_correct(&e.metric) {
            None => out.push(format!("{}: CC undefined (expected a verdict)", e.metric)),
            Some(correct) => {
                if correct != e.direction_correct {
                    out.push(format!(
                        "{}: direction {} (expected {})",
                        e.metric,
                        if correct { "correct" } else { "WRONG" },
                        if e.direction_correct {
                            "correct"
                        } else {
                            "WRONG"
                        }
                    ));
                }
                if let Some(floor) = e.min_normalized {
                    let cc = fig.normalized(&e.metric).unwrap_or(f64::NAN);
                    if cc.is_nan() || cc < floor {
                        out.push(format!(
                            "{}: normalized CC {cc:.3} below floor {floor:.3}",
                            e.metric
                        ));
                    }
                }
            }
        }
    }
    if let Some(Verdict::BpsStrictlyHighest) = verdict {
        if !crate::figures::faults::bps_strictly_best(fig) {
            out.push("BPS does not have the strictly highest |CC|".to_string());
        }
    }
    out
}

/// Parse a scenario from JSON text. A malformed document reports the
/// offending field (the deserializer wraps every field error with its
/// name, so nested mistakes read `field `base`: field `workload`: ...`).
pub fn load_str(json: &str) -> Result<Scenario, EngineError> {
    serde_json::from_str(json).map_err(|e| err(format!("invalid scenario JSON: {e}")))
}

/// Load a scenario from a JSON file; every error names the file.
pub fn load_path(path: &Path) -> Result<Scenario, EngineError> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| err_io(format!("cannot read {}: {e}", path.display())))?;
    load_str(&text).map_err(|e| EngineError {
        kind: e.kind,
        msg: format!("{}: {e}", path.display()),
    })
}

#[cfg(test)]
mod tests {
    use super::super::spec::{CaseDecl, CaseTemplate, Grid, Num, ScaleKnob};
    use super::*;
    use bps_workloads::iozone::IozoneMode;

    fn iozone_template() -> WorkloadTemplate {
        WorkloadTemplate::Iozone {
            mode: IozoneMode::SeqRead,
            file_size: Num::Knob {
                knob: ScaleKnob::Fig5File,
            },
            record_size: Num::Abs { n: 1 << 20 },
            processes: 1,
            seed: 0,
        }
    }

    fn cc_scenario(grid: Grid) -> Scenario {
        Scenario {
            name: "test".into(),
            title: "Test sweep".into(),
            output: OutputSpec::Cc,
            base: CaseTemplate::new(StorageSpec::Hdd, iozone_template()),
            grid,
            metrics: Vec::new(),
            deadline_ms: None,
            expect: Vec::new(),
            verdict: None,
        }
    }

    #[test]
    fn durations_that_overflow_nanoseconds_are_invalid_specs() {
        use super::super::spec::{LinkLossSpec, OutageTrainSpec};
        let one = || Grid::single(vec![CaseDecl::new("one", Patch::none())]);
        let rejects = |sc: Scenario, needle: &str| {
            let e = expand(&sc, &Scale::tiny()).unwrap_err();
            assert_eq!(e.kind(), EngineErrorKind::InvalidSpec);
            assert!(e.to_string().starts_with("case `one`: "), "{e}");
            assert!(e.to_string().contains(needle), "{e}");
        };
        let mut sc = cc_scenario(one());
        sc.base.cpu_per_op_us = Some(100_000_000_000_000_000);
        rejects(sc, "`cpu_per_op_us` overflows 64-bit nanoseconds");

        let mut sc = cc_scenario(one());
        sc.base.retry = Some(RetrySpec::Custom {
            max_attempts: 3,
            base_backoff_us: 10,
            max_backoff_us: u64::MAX / 1_000 + 1,
        });
        rejects(sc, "retry `max_backoff_us` overflows");

        let fault = |link_loss, outage_trains| FaultSpec {
            seed: 1,
            slowdowns: Vec::new(),
            device_errors: Vec::new(),
            link_loss,
            outage_trains,
        };
        let mut sc = cc_scenario(one());
        sc.base.fault = Some(fault(
            Some(LinkLossSpec {
                rate: 0.01,
                retransmit_delay_ms: 100_000_000_000_000,
            }),
            Vec::new(),
        ));
        rejects(sc, "link loss `retransmit_delay_ms` overflows");

        let train = |period_ms, cycles| OutageTrainSpec {
            server: 0,
            width_ms: 5,
            period_ms,
            phase_ms: 0,
            cycles,
        };
        let mut sc = cc_scenario(one());
        sc.base.fault = Some(fault(
            None,
            vec![train(10, 4), train(10_000_000_000_000_000, 3)],
        ));
        rejects(sc, "outage train 1: `10 + period_ms");

        // One cycle never multiplies the period, so it cannot overflow;
        // an outage ending at the largest representable instant fits.
        let mut sc = cc_scenario(one());
        let max_ms = u64::MAX / 1_000_000;
        sc.base.fault = Some(fault(
            None,
            vec![train(u64::MAX, 1), train(1, max_ms - 10 - 5 + 1)],
        ));
        expand(&sc, &Scale::tiny()).unwrap();
    }

    #[test]
    fn grid_cross_product_is_row_major_with_joined_labels() {
        let grid = Grid {
            dims: vec![
                vec![
                    CaseDecl::new("a", Patch::none()),
                    CaseDecl::new("b", Patch::none()),
                ],
                vec![
                    CaseDecl::new(
                        "r4k",
                        Patch {
                            record_size: Some(4 << 10),
                            ..Patch::none()
                        },
                    ),
                    CaseDecl::new(
                        "r64k",
                        Patch {
                            record_size: Some(64 << 10),
                            ..Patch::none()
                        },
                    ),
                ],
            ],
        };
        let cases = expand(&cc_scenario(grid), &Scale::tiny()).unwrap();
        let labels: Vec<&str> = cases.iter().map(|c| c.label.as_str()).collect();
        assert_eq!(labels, ["a/r4k", "a/r64k", "b/r4k", "b/r64k"]);
        match &cases[1].workload {
            ResolvedWorkload::Spec(WorkloadSpec::Iozone { record_size, .. }) => {
                assert_eq!(*record_size, 64 << 10)
            }
            other => panic!("unexpected workload {other:?}"),
        }
    }

    #[test]
    fn later_dimension_overrides_earlier_patch() {
        let grid = Grid {
            dims: vec![
                vec![CaseDecl::new(
                    "ssd",
                    Patch {
                        storage: Some(StorageSpec::Ssd),
                        ..Patch::none()
                    },
                )],
                vec![CaseDecl::new(
                    "pvfs",
                    Patch {
                        storage: Some(StorageSpec::Pvfs { servers: 4 }),
                        ..Patch::none()
                    },
                )],
            ],
        };
        let cases = expand(&cc_scenario(grid), &Scale::tiny()).unwrap();
        assert_eq!(cases[0].storage, StorageSpec::Pvfs { servers: 4 });
    }

    #[test]
    fn inapplicable_patch_is_a_labelled_error() {
        let grid = Grid::single(vec![CaseDecl::new(
            "bad-gap",
            Patch {
                region_spacing: Some(64),
                ..Patch::none()
            },
        )]);
        let e = expand(&cc_scenario(grid), &Scale::tiny())
            .unwrap_err()
            .to_string();
        assert!(e.contains("bad-gap"), "{e}");
        assert!(e.contains("region_spacing"), "{e}");
        assert!(e.contains("Iozone"), "{e}");
    }

    #[test]
    fn empty_grid_rejected() {
        let e = expand(&cc_scenario(Grid { dims: Vec::new() }), &Scale::tiny())
            .unwrap_err()
            .to_string();
        assert!(e.contains("no dimensions"), "{e}");
        let e = expand(
            &cc_scenario(Grid {
                dims: vec![Vec::new()],
            }),
            &Scale::tiny(),
        )
        .unwrap_err()
        .to_string();
        assert!(e.contains("empty"), "{e}");
    }

    #[test]
    fn invalid_workload_surfaces_at_expansion() {
        let grid = Grid::single(vec![CaseDecl::new(
            "zero-rec",
            Patch {
                record_size: Some(0),
                ..Patch::none()
            },
        )]);
        let e = expand(&cc_scenario(grid), &Scale::tiny())
            .unwrap_err()
            .to_string();
        assert!(e.contains("zero-rec"), "{e}");
        assert!(e.contains("record_size"), "{e}");
    }

    #[test]
    fn unknown_detail_metric_rejected() {
        let mut sc = cc_scenario(Grid::single(vec![CaseDecl::new("a", Patch::none())]));
        sc.output = OutputSpec::Detail {
            metric: "QPS".into(),
        };
        let e = expand(&sc, &Scale::tiny()).unwrap_err().to_string();
        assert!(e.contains("QPS"), "{e}");
    }

    #[test]
    fn unknown_scenario_metric_rejected_at_expansion() {
        let mut sc = cc_scenario(Grid::single(vec![CaseDecl::new("a", Patch::none())]));
        sc.metrics = vec!["BPS".into(), "QPS".into()];
        let e = expand(&sc, &Scale::tiny()).unwrap_err().to_string();
        assert!(e.contains("QPS"), "{e}");
        assert!(e.contains("valid metrics"), "{e}");
        assert!(e.contains("MaxQD"), "{e}");
    }

    #[test]
    fn zero_deadline_rejected_at_expansion() {
        let mut sc = cc_scenario(Grid::single(vec![CaseDecl::new("a", Patch::none())]));
        sc.deadline_ms = Some(0);
        let e = expand(&sc, &Scale::tiny()).unwrap_err();
        assert_eq!(e.kind(), EngineErrorKind::InvalidSpec);
        assert!(e.to_string().contains("deadline_ms"), "{e}");
        sc.deadline_ms = Some(1);
        assert!(expand(&sc, &Scale::tiny()).is_ok());
    }

    #[test]
    fn unknown_expect_metric_rejected_at_expansion() {
        let mut sc = cc_scenario(Grid::single(vec![CaseDecl::new("a", Patch::none())]));
        sc.expect = vec![Expect::correct("QPS", 0.5)];
        let e = expand(&sc, &Scale::tiny()).unwrap_err().to_string();
        assert!(e.contains("expectation"), "{e}");
        assert!(e.contains("QPS"), "{e}");
    }

    #[test]
    fn selection_resolution_scenario_then_override_then_paper() {
        let grid = || Grid::single(vec![CaseDecl::new("a", Patch::none())]);
        // Default: the paper four.
        let none = RunOpts::default();
        assert_eq!(
            effective_selection(&cc_scenario(grid()), &none)
                .unwrap()
                .names(),
            ["IOPS", "BW", "ARPT", "BPS"]
        );
        // Expectation metrics are always unioned in (registry order).
        let mut sc = cc_scenario(grid());
        sc.metrics = vec!["BPS".into()];
        sc.expect = vec![Expect::correct("arpt", 0.5)];
        assert_eq!(
            effective_selection(&sc, &none).unwrap().names(),
            ["ARPT", "BPS"]
        );
        // The CLI's list fills in when a scenario has no list of its own,
        // but never beats an explicit scenario selection.
        let cli = RunOpts {
            metrics: Some(vec!["BPS".into(), "MaxQD".into()]),
            ..RunOpts::default()
        };
        assert_eq!(
            effective_selection(&cc_scenario(grid()), &cli)
                .unwrap()
                .names(),
            ["BPS", "MaxQD"]
        );
        assert_eq!(
            effective_selection(&sc, &cli).unwrap().names(),
            ["ARPT", "BPS"]
        );
    }

    #[test]
    fn scenario_metrics_run_end_to_end() {
        let grid = Grid::single(vec![
            CaseDecl::new(
                "r128k",
                Patch {
                    record_size: Some(128 << 10),
                    ..Patch::none()
                },
            ),
            CaseDecl::new(
                "r512k",
                Patch {
                    record_size: Some(512 << 10),
                    ..Patch::none()
                },
            ),
        ]);
        let mut sc = cc_scenario(grid);
        sc.metrics = vec!["BPS".into(), "p99".into()];
        let fig = run_with_opts(
            &sc,
            &Scale::tiny(),
            SweepExec::new(1),
            false,
            &RunOpts::default(),
        )
        .unwrap()
        .into_cc();
        let rows: Vec<&str> = fig.rows.iter().map(|r| r.metric.as_str()).collect();
        assert_eq!(rows, ["BPS", "P99"]);
        for c in &fig.cases {
            assert_eq!(c.extra.len(), 1);
            assert_eq!(c.extra[0].0, "P99");
            assert!(c.extra[0].1 > 0.0, "{}: {:?}", c.label, c.extra);
        }
        let shown = format!("{fig}");
        assert!(shown.contains("P99(s)"), "{shown}");
        assert!(!shown.contains("IOPS"), "{shown}");
    }

    #[test]
    fn fault_spec_builds_the_hand_built_plan() {
        use super::super::spec::{LinkLossSpec, OutageTrainSpec};
        use bps_sim::fault::Slowdown;
        // Mirror of the faults.rs "two-x2.0" straggler shape.
        let slow = |server: usize, factor: f64| Slowdown { server, factor };
        let mut spec = FaultSpec::seeded(0x5E7_5000);
        spec.slowdowns = vec![slow(0, 2.0), slow(1, 2.0)];
        let plan = build_fault(&spec);
        let hand = FaultPlan {
            seed: 0x5E7_5000,
            ..FaultPlan::none()
        }
        .with_slowdown(slow(0, 2.0))
        .with_slowdown(slow(1, 2.0));
        assert_eq!(format!("{plan:?}"), format!("{hand:?}"));

        // Link loss + an outage train.
        let mut spec = FaultSpec::seeded(1);
        spec.link_loss = Some(LinkLossSpec {
            rate: 0.04,
            retransmit_delay_ms: 8,
        });
        spec.outage_trains = vec![OutageTrainSpec {
            server: 1,
            width_ms: 8,
            period_ms: 64,
            phase_ms: 40,
            cycles: 3,
        }];
        let plan = build_fault(&spec);
        let mut hand = FaultPlan {
            seed: 1,
            ..FaultPlan::none()
        }
        .with_link_loss(0.04, Dur::from_millis(8));
        for cycle in 0..3u64 {
            let start = 10 + 64 * cycle + 40;
            hand = hand.with_outage(Outage {
                server: 1,
                start: Nanos::from_millis(start),
                end: Nanos::from_millis(start + 8),
            });
        }
        assert_eq!(format!("{plan:?}"), format!("{hand:?}"));
    }

    #[test]
    fn run_with_is_thread_count_invariant() {
        let grid = Grid::single(vec![
            CaseDecl::new(
                "r256k",
                Patch {
                    record_size: Some(256 << 10),
                    ..Patch::none()
                },
            ),
            CaseDecl::new(
                "r1m",
                Patch {
                    record_size: Some(1 << 20),
                    ..Patch::none()
                },
            ),
        ]);
        let mut sc = cc_scenario(grid);
        // Extended metrics too: their per-record sink state must not
        // depend on which worker ran a unit either.
        sc.metrics = ["IOPS", "BW", "ARPT", "BPS", "p50", "p99", "EffPar", "MaxQD"]
            .map(String::from)
            .to_vec();
        let scale = Scale::tiny();
        // Memo pinned off: the point is to compare two real simulations,
        // not a simulation against its own cached result.
        let seq = run_with_opts(&sc, &scale, SweepExec::new(1), false, &RunOpts::default())
            .unwrap()
            .into_cc();
        let par = run_with_opts(&sc, &scale, SweepExec::new(4), false, &RunOpts::default())
            .unwrap()
            .into_cc();
        assert_eq!(format!("{seq}"), format!("{par}"));
        for (a, b) in seq.cases.iter().zip(&par.cases) {
            assert_eq!(a.exec_s.to_bits(), b.exec_s.to_bits());
            assert_eq!(a.bps.to_bits(), b.bps.to_bits());
            assert_eq!(a.extra.len(), 4);
            for ((na, va), (nb, vb)) in a.extra.iter().zip(&b.extra) {
                assert_eq!(na, nb);
                assert_eq!(va.to_bits(), vb.to_bits(), "{na} differs across threads");
            }
        }
    }

    #[test]
    fn memoized_second_run_returns_cached_points_bitwise() {
        // A record size no other test sweeps, so this test owns its memo
        // entries even when the suite runs in one process.
        let grid = Grid::single(vec![CaseDecl::new(
            "r768k",
            Patch {
                record_size: Some(768 << 10),
                ..Patch::none()
            },
        )]);
        let sc = cc_scenario(grid);
        let scale = Scale::tiny();
        let cold = run_with_opts(&sc, &scale, SweepExec::new(1), true, &RunOpts::default())
            .unwrap()
            .into_cc();
        let warm = run_with_opts(&sc, &scale, SweepExec::new(1), true, &RunOpts::default())
            .unwrap()
            .into_cc();
        assert_eq!(cold.cases.len(), warm.cases.len());
        for (a, b) in cold.cases.iter().zip(&warm.cases) {
            assert_eq!(a.label, b.label);
            assert_eq!(a.iops.to_bits(), b.iops.to_bits());
            assert_eq!(a.bw.to_bits(), b.bw.to_bits());
            assert_eq!(a.arpt.to_bits(), b.arpt.to_bits());
            assert_eq!(a.bps.to_bits(), b.bps.to_bits());
            assert_eq!(a.exec_s.to_bits(), b.exec_s.to_bits());
        }
        // A memo-off run of the same scenario still simulates and must
        // agree bit-for-bit with the cached result.
        let off = run_with_opts(&sc, &scale, SweepExec::new(1), false, &RunOpts::default())
            .unwrap()
            .into_cc();
        for (a, b) in warm.cases.iter().zip(&off.cases) {
            assert_eq!(a.bps.to_bits(), b.bps.to_bits());
            assert_eq!(a.exec_s.to_bits(), b.exec_s.to_bits());
        }
    }

    #[test]
    fn memo_is_byte_neutral_for_bundled_figures() {
        // The second memo-on pass serves every case from the memo, as
        // `reproduce summary` does after the figures it re-scores.
        let scale = Scale::tiny();
        let reports = |memo_on: bool| -> String {
            ["fig4", "fig5", "fig9"]
                .into_iter()
                .map(|name| {
                    let sc = super::super::registry::find(name).expect("bundled scenario");
                    let out =
                        run_with_opts(&sc, &scale, SweepExec::new(1), memo_on, &RunOpts::default())
                            .unwrap();
                    // The report's bytes, then every value bit-exact.
                    format!("{out}{out:?}")
                })
                .collect()
        };
        let off = reports(false);
        assert_eq!(off, reports(true), "memo cold");
        assert_eq!(off, reports(true), "memo warm");
    }

    #[test]
    fn violations_flag_direction_floor_and_verdict() {
        use crate::runner::CasePoint;
        // IOPS rises with execution time: wrong direction.
        let cases: Vec<CasePoint> = (1..=5u32)
            .map(|k| {
                let t = k as f64;
                CasePoint {
                    label: format!("c{k}"),
                    iops: 100.0 * t,
                    bw: 50.0 / t,
                    arpt: 0.001 * t,
                    bps: 6400.0 / t,
                    exec_s: t,
                    extra: Vec::new(),
                    failed: None,
                }
            })
            .collect();
        let out = ScenarioOutput::Cc(CcFigure::from_points("v", cases));
        let v = violations(
            &out,
            &[Expect::correct("IOPS", 0.5), Expect::correct("BPS", 0.99)],
            Some(Verdict::BpsStrictlyHighest),
        );
        assert!(
            v.iter().any(|s| s.contains("IOPS") && s.contains("WRONG")),
            "{v:?}"
        );
        // BPS is correct but its CC (~0.90) sits under the 0.99 floor.
        assert!(
            v.iter().any(|s| s.contains("BPS") && s.contains("floor")),
            "{v:?}"
        );
        // ARPT is perfectly linear in exec time here, so BPS is not strictly best.
        assert!(v.iter().any(|s| s.contains("strictly highest")), "{v:?}");
        let ok = violations(
            &out,
            &[Expect::wrong("IOPS"), Expect::correct("BPS", 0.9)],
            None,
        );
        assert!(ok.is_empty(), "{ok:?}");
    }

    #[test]
    fn load_str_reports_bad_json() {
        let e = load_str("{not json").unwrap_err().to_string();
        assert!(e.contains("invalid scenario JSON"), "{e}");
    }
}
