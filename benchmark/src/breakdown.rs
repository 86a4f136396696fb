//! The traced run's in-process measurements: a per-layer split of sweep
//! unit time, one-by-one case-store lookups, and the hardware ceilings
//! the layer numbers are stated against.
//!
//! The split times whole calls only. Reading a clock around each sink
//! call or each op-stream `next()` inflates unit time by more than half,
//! so instead each unit runs several times with a different sink:
//!
//! * drain every op stream alone (`workloads.gen_s`);
//! * assemble the topology over a discarding sink (`topology.build_s`);
//! * run the unit over a discarding sink — the stack's own time is this
//!   minus generation and assembly (`stack.self_s`);
//! * run it over a sink that captures every call, then replay the
//!   captured calls into `StreamingMetrics` through the same entry
//!   points (`core.fold_s`);
//! * run it over a real `StreamingMetrics`, the reference unit time.
//!
//! The replayed metrics must be bit-equal to the real sink's, and the
//! points averaged from them bit-equal to the scenario engine's.

use crate::inputs;
use crate::pass::{load_scale, load_scenarios, render};
use bps_core::batch::RecordBatch;
use bps_core::metrics::MetricSelection;
use bps_core::record::{IoRecord, Layer};
use bps_core::sink::{RecordSink, StreamingMetrics};
use bps_core::time::{Dur, Nanos};
use bps_experiments::figures::faults::DegradedMix;
use bps_experiments::runner::{
    run_case_with, CasePoint, CaseSpec, LayoutPolicy, Storage, UnitValues,
};
use bps_experiments::scale::Scale;
use bps_experiments::scenario::engine::{
    self, build_fault, ResolvedCase, ResolvedWorkload, RunOpts, ScenarioOutput,
};
use bps_experiments::scenario::spec::{
    LayoutSpec, OutputSpec, RetrySpec, Scenario, SievingSpec, StorageSpec,
};
use bps_experiments::scenario::store::CaseStore;
use bps_experiments::sweep::SweepExec;
use bps_middleware::sieving::SievingConfig;
use bps_middleware::stack::RetryPolicy;
use bps_sim::engine::{run_processes, Process, Wake, Waker};
use bps_sim::rng::SimRng;
use bps_topology::{BuildEnv, Layout};
use bps_workloads::spec::Workload;
use std::collections::HashMap;
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

/// Host seconds and counts of one sweep workload's units, split by layer.
#[derive(Debug, Default)]
pub struct Split {
    /// Unique (case, seed) units measured.
    pub units: u64,
    /// Building each unique case's workload once.
    pub build_s: f64,
    /// Draining every op stream of every unit.
    pub gen_s: f64,
    /// Ops the streams yielded.
    pub ops: u64,
    /// Assembling the topology over a discarding sink.
    pub topology_s: f64,
    /// Whole units over a discarding sink.
    pub discard_s: f64,
    /// Whole units over a real `StreamingMetrics` sink.
    pub real_s: f64,
    /// Replaying the captured sink calls into `StreamingMetrics`.
    pub fold_s: f64,
    /// Copying the captured buffers (the fold's memory ceiling).
    pub copy_s: f64,
    /// Records folded.
    pub records: u64,
    /// Sink calls folded.
    pub calls: u64,
    /// Application / file-system records and blocks.
    pub app_ops: u64,
    /// File-system records.
    pub fs_ops: u64,
    /// Application blocks required.
    pub app_blocks: u64,
    /// File-system blocks moved.
    pub fs_blocks: u64,
    /// Digest of the engine's output at one thread.
    pub digest: String,
    /// Every check that failed.
    pub problems: Vec<String>,
}

impl Split {
    /// The stack's own time: whole units minus generation and assembly.
    pub fn stack_s(&self) -> f64 {
        self.discard_s - self.gen_s - self.topology_s
    }

    /// How far generation + assembly + stack + fold miss the real-sink
    /// unit time, as a share of it.
    pub fn gap(&self) -> f64 {
        ((self.discard_s + self.fold_s) / self.real_s - 1.0).abs()
    }
}

/// A sink that drops every record.
#[derive(Default)]
struct Discard;

impl RecordSink for Discard {
    fn on_record(&mut self, record: &IoRecord) {
        black_box(record);
    }
    fn push_batch(&mut self, records: &[IoRecord]) {
        black_box(records);
    }
    fn push_columns(&mut self, batch: &RecordBatch) {
        black_box(batch);
    }
}

/// One captured sink call.
enum Call {
    Record(IoRecord),
    Batch(Vec<IoRecord>),
    Columns(RecordBatch),
    ExecTime(Dur),
}

/// A sink that keeps every call, in order, for replay.
#[derive(Default)]
struct Capture(Vec<Call>);

impl RecordSink for Capture {
    fn on_record(&mut self, record: &IoRecord) {
        self.0.push(Call::Record(*record));
    }
    fn push_batch(&mut self, records: &[IoRecord]) {
        self.0.push(Call::Batch(records.to_vec()));
    }
    fn push_columns(&mut self, batch: &RecordBatch) {
        self.0.push(Call::Columns(batch.clone()));
    }
    fn on_execution_time(&mut self, t: Dur) {
        self.0.push(Call::ExecTime(t));
    }
}

/// Feed captured calls to `sink` through the entry points the producer
/// used.
fn replay(calls: &[Call], sink: &mut StreamingMetrics) {
    for c in calls {
        match c {
            Call::Record(r) => sink.on_record(r),
            Call::Batch(v) => sink.push_batch(v),
            Call::Columns(b) => sink.push_columns(b),
            Call::ExecTime(t) => sink.on_execution_time(*t),
        }
    }
}

/// Scratch buffers for the memcpy ceiling, one per column type.
#[derive(Default)]
struct CopyBuffers {
    records: Vec<IoRecord>,
    words: Vec<u64>,
    nanos: Vec<Nanos>,
    bytes: Vec<u8>,
}

impl CopyBuffers {
    /// Copy every buffer the calls hold, as the fold reads them.
    fn copy(&mut self, calls: &[Call]) {
        for c in calls {
            match c {
                Call::Record(r) => self.records.push(*r),
                Call::Batch(v) => self.records.extend_from_slice(v),
                Call::Columns(b) => {
                    self.words.extend_from_slice(b.bytes_col());
                    self.words.extend_from_slice(b.offsets_col());
                    self.nanos.extend_from_slice(b.starts_col());
                    self.nanos.extend_from_slice(b.ends_col());
                    let layers = b.layers_col();
                    self.bytes.extend(layers.iter().map(|&l| l as u8));
                    self.bytes.extend(b.ops_col().iter().map(|&o| o as u8));
                    self.words
                        .extend(b.pids_col().iter().map(|p| u64::from(p.0)));
                    self.words
                        .extend(b.files_col().iter().map(|f| u64::from(f.0)));
                }
                Call::ExecTime(_) => {}
            }
        }
        black_box((&self.records, &self.words, &self.nanos, &self.bytes));
        self.records.clear();
        self.words.clear();
        self.nanos.clear();
        self.bytes.clear();
    }
}

/// The metric selection the engine scores a scenario with when no
/// `--metrics` override is installed: its own list or the paper four,
/// plus every metric its output or expectations name.
pub fn selection(sc: &Scenario) -> MetricSelection {
    let base = if sc.metrics.is_empty() {
        MetricSelection::paper()
    } else {
        MetricSelection::parse(&sc.metrics).expect("expanded scenarios name known metrics")
    };
    let mut named: Vec<&str> = sc.expect.iter().map(|e| e.metric.as_str()).collect();
    if let OutputSpec::Detail { metric } = &sc.output {
        named.push(metric);
    }
    base.with_names(&named)
        .expect("expanded scenarios name known metrics")
}

/// The runnable case the engine builds from a resolved case.
fn case_spec<'a>(c: &ResolvedCase, w: &'a dyn Workload) -> CaseSpec<'a> {
    let storage = match c.storage {
        StorageSpec::Hdd => Storage::Hdd,
        StorageSpec::Ssd => Storage::Ssd,
        StorageSpec::Pvfs { servers } => Storage::Pvfs { servers },
    };
    let mut spec = CaseSpec::new(storage, w);
    spec.layout = match c.layout {
        LayoutSpec::DefaultStripe => LayoutPolicy::DefaultStripe,
        LayoutSpec::PinnedPerFile => LayoutPolicy::PinnedPerFile,
    };
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

fn build_workload(c: &ResolvedCase, scale: &Scale) -> Result<Box<dyn Workload>, String> {
    match &c.workload {
        ResolvedWorkload::Spec(spec) => spec.build().map_err(|e| format!("{}: {e}", c.label)),
        ResolvedWorkload::DegradedMix => Ok(Box::new(DegradedMix::from_scale(scale))),
    }
}

/// Assemble a unit's topology exactly as `run_case_with` does, over a
/// discarding sink.
fn build_topology(spec: &CaseSpec<'_>, seed: u64) {
    let mut seed_rng = SimRng::seed_from_u64(seed.wrapping_mul(0x9E37_79B9));
    let server_cpu = Dur::from_secs_f64(25e-6 * (0.85 + 0.3 * seed_rng.unit()));
    let file_sizes = spec.workload.file_sizes();
    let env = BuildEnv {
        clients: spec.clients,
        server_cpu,
        seed,
        file_sizes: &file_sizes,
        layout: match spec.layout {
            LayoutPolicy::DefaultStripe => Layout::DefaultStripe,
            LayoutPolicy::PinnedPerFile => Layout::PinnedPerFile,
        },
        sieving: spec.sieving,
        retry: spec.retry,
        fault: spec.fault.clone(),
    };
    let built = spec
        .effective_topology()
        .build(&env, Discard)
        .unwrap_or_else(|e| panic!("invalid topology: {e}"));
    black_box(built.files);
}

fn secs(f: impl FnOnce()) -> f64 {
    let t = Instant::now();
    f();
    t.elapsed().as_secs_f64()
}

fn bits(p: &CasePoint) -> Vec<u64> {
    let mut v: Vec<u64> = [p.iops, p.bw, p.arpt, p.bps, p.exec_s]
        .iter()
        .map(|x| x.to_bits())
        .collect();
    v.extend(p.extra.iter().map(|(_, x)| x.to_bits()));
    v
}

/// Split every unique (case, seed) unit of a sweep work directory at one
/// thread, and check the split's points against the engine's.
pub fn split(dir: &Path) -> Result<Split, String> {
    let scale = load_scale(dir)?;
    let scenarios = load_scenarios(dir)?;
    let mut s = Split::default();

    // The engine's own answer at one thread, memo on as in a pass.
    let mut rendered = String::new();
    let mut outputs: Vec<ScenarioOutput> = Vec::new();
    for sc in &scenarios {
        let out = engine::run_with_opts(sc, &scale, SweepExec::new(1), true, &RunOpts::default())
            .map_err(|e| format!("{}: {e}", sc.name))?;
        rendered.push_str(&render(sc, &out));
        outputs.push(out);
    }
    s.digest = format!("{:016x}", inputs::fnv1a(rendered.as_bytes()));

    // Each content key once, as the memo dedupes them.
    let mut points: HashMap<String, CasePoint> = HashMap::new();
    let mut keys: Vec<Vec<String>> = Vec::new();
    for sc in &scenarios {
        let sel = selection(sc);
        let cases = engine::expand(sc, &scale).map_err(|e| e.to_string())?;
        let mut sc_keys = Vec::new();
        for case in &cases {
            let key = engine::content_key(case, &scale, &sel);
            if !points.contains_key(&key) {
                let point = split_case(case, &scale, &sel, &mut s)?;
                points.insert(key.clone(), point);
            }
            sc_keys.push(key);
        }
        keys.push(sc_keys);
    }

    for ((sc, out), sc_keys) in scenarios.iter().zip(&outputs).zip(&keys) {
        let mismatch =
            |label: &str| format!("{}/{label}: split points differ from the engine's", sc.name);
        match out {
            ScenarioOutput::Cc(fig) => {
                for (p, key) in fig.cases.iter().zip(sc_keys) {
                    if bits(p) != bits(&points[key]) {
                        s.problems.push(mismatch(&p.label));
                    }
                }
            }
            ScenarioOutput::Detail(series) => {
                for ((label, value, exec), key) in series.points.iter().zip(sc_keys) {
                    let p = &points[key];
                    let want = p.metric(&series.metric).unwrap_or(f64::NAN);
                    if value.to_bits() != want.to_bits() || exec.to_bits() != p.exec_s.to_bits() {
                        s.problems.push(mismatch(label));
                    }
                }
            }
        }
    }
    Ok(s)
}

/// Split one case over every seed; returns its averaged point.
fn split_case(
    case: &ResolvedCase,
    scale: &Scale,
    sel: &MetricSelection,
    s: &mut Split,
) -> Result<CasePoint, String> {
    let mut workload = None;
    s.build_s += secs(|| workload = Some(build_workload(case, scale)));
    let workload = workload.expect("timed closure ran")?;
    let spec = case_spec(case, workload.as_ref());
    let mut copies = CopyBuffers::default();
    let mut units = Vec::new();
    for seed in scale.seeds() {
        s.units += 1;
        s.gen_s += secs(|| {
            for pid in 0..workload.processes() {
                s.ops += workload.stream(pid).map(black_box).count() as u64;
            }
        });
        s.topology_s += secs(|| build_topology(&spec, seed));
        s.discard_s += secs(|| {
            black_box(run_case_with(&spec, seed, Discard));
        });
        let mut real = None;
        s.real_s += secs(|| {
            real = Some(run_case_with(
                &spec,
                seed,
                StreamingMetrics::for_selection(sel),
            ))
        });
        let real = real.expect("timed closure ran");

        let captured = run_case_with(&spec, seed, Capture::default()).0;
        let mut folded = StreamingMetrics::for_selection(sel);
        s.fold_s += secs(|| replay(&captured, &mut folded));
        s.copy_s += secs(|| copies.copy(&captured));
        s.calls += captured
            .iter()
            .filter(|c| !matches!(c, Call::ExecTime(_)))
            .count() as u64;
        s.records += folded.len();
        s.app_ops += folded.op_count(Layer::Application);
        s.fs_ops += folded.op_count(Layer::FileSystem);
        s.app_blocks += folded.blocks(Layer::Application);
        s.fs_blocks += folded.blocks(Layer::FileSystem);

        let values = UnitValues::capture(&folded, sel);
        if format!("{values:?}") != format!("{:?}", UnitValues::capture(&real, sel)) {
            s.problems.push(format!(
                "{} seed {seed}: replayed fold differs from the live sink",
                case.label
            ));
        }
        units.push(values);
    }
    Ok(CasePoint::from_units(case.label.clone(), &units, sel))
}

/// Time every `CaseStore::lookup` of a warm store one by one. Returns
/// (seconds, hits, lookups) over the unique content keys.
pub fn lookups(dir: &Path) -> Result<(f64, u64, u64), String> {
    let scale = load_scale(dir)?;
    let store = CaseStore::at(inputs::store_dir(dir));
    let mut seen = std::collections::HashSet::new();
    let (mut total_s, mut hits) = (0.0, 0u64);
    for sc in &load_scenarios(dir)? {
        let sel = selection(sc);
        for case in engine::expand(sc, &scale).map_err(|e| e.to_string())? {
            let key = engine::content_key(&case, &scale, &sel);
            if seen.insert(key.clone()) {
                let t = Instant::now();
                let found = store.lookup(&key);
                total_s += t.elapsed().as_secs_f64();
                hits += u64::from(found.is_some());
            }
        }
    }
    Ok((total_s, hits, seen.len() as u64))
}

/// Decode and summary throughput of the stored traces against a memcpy
/// of the same bytes: (decode_vs_copy, fold_vs_copy).
pub fn trace_ceilings(dir: &Path) -> Result<(f64, f64), String> {
    let (mut decode_s, mut decode_copy_s) = (0.0, 0.0);
    let (mut fold_s, mut fold_copy_s) = (0.0, 0.0);
    let mut byte_buf: Vec<u8> = Vec::new();
    let mut record_buf: Vec<IoRecord> = Vec::new();
    for (name, _, _) in crate::pass::load_manifest(dir)? {
        let bytes = std::fs::read(inputs::trace_dir(dir).join(&name))
            .map_err(|e| format!("{name}: {e}"))?;
        let mut trace = None;
        decode_s += secs(|| trace = Some(bps_trace::format::from_binary(&bytes)));
        let Some(Ok(trace)) = trace else {
            continue;
        };
        decode_copy_s += secs(|| {
            byte_buf.extend_from_slice(&bytes);
            black_box(&byte_buf);
        });
        fold_s += secs(|| {
            black_box(bps_core::report::MetricsSummary::from_trace(&trace));
        });
        fold_copy_s += secs(|| {
            record_buf.extend_from_slice(trace.records());
            black_box(&record_buf);
        });
        byte_buf.clear();
        record_buf.clear();
    }
    // No trace decoded (all of them unusable) leaves nothing to compare.
    let share = |copy: f64, work: f64| if work > 0.0 { copy / work } else { 0.0 };
    Ok((share(decode_copy_s, decode_s), share(fold_copy_s, fold_s)))
}

/// A process that wakes a fixed number of times: the engine loop with no
/// I/O model behind it.
struct Ticker {
    left: u32,
    step: u64,
}

impl Process<()> for Ticker {
    fn wake(&mut self, now: Nanos, _env: &mut (), _waker: &mut Waker) -> Wake {
        if self.left == 0 {
            Wake::Done
        } else {
            self.left -= 1;
            Wake::At(Nanos(now.0 + self.step))
        }
    }
}

/// Wakes per second of `run_processes` over 64 bare tickers, best of
/// three: the ceiling `stack.ns_per_wake` is stated against.
pub fn wake_ceiling(wakes_each: u32) -> f64 {
    (0..3)
        .map(|_| {
            let mut procs: Vec<Ticker> = (0..64)
                .map(|i| Ticker {
                    left: wakes_each,
                    step: 1_000 + i,
                })
                .collect();
            let t = Instant::now();
            let outcome = run_processes(&mut procs, &mut ());
            outcome.wakes as f64 / t.elapsed().as_secs_f64()
        })
        .fold(0.0, f64::max)
}
