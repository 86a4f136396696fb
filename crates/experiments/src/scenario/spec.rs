//! The serializable scenario data model.
//!
//! A [`Scenario`] is a pure-data description of one sweep experiment: a
//! base case template, a case grid that varies it along one or more
//! dimensions, the output to score ([`OutputSpec`]), the Table-1 expected
//! correlation directions ([`Expect`]), and an optional cross-metric
//! [`Verdict`]. Every bundled figure is one of these values (see
//! [`crate::scenario::registry`]), and a user-authored JSON file with the
//! same shape runs through the identical engine — experiments are data,
//! not code.
//!
//! Sizes that should track the `--tiny`/`--quick`/`--paper` presets are
//! written as [`Num`] expressions over [`ScaleKnob`]s instead of absolute
//! byte counts; everything else is plain integers. Durations are
//! microseconds or milliseconds, named in the field (`_us`/`_ms`) —
//! the serialized form has no duration type.

use crate::scale::Scale;
use serde::{Deserialize, Serialize};

/// A named data-volume knob of [`Scale`], so scenario files scale with
/// the preset instead of hard-coding byte counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ScaleKnob {
    /// `Scale::fig4_file` — bytes per device case.
    Fig4File,
    /// `Scale::fig5_file` — bytes per record-size case.
    Fig5File,
    /// `Scale::fig9_total` — total bytes across processes.
    Fig9Total,
    /// `Scale::fig11_total` — shared-file bytes.
    Fig11Total,
    /// `Scale::fig12_regions` — total HPIO region count.
    Fig12Regions,
}

impl ScaleKnob {
    /// The knob's value under a scale preset.
    pub fn get(&self, scale: &Scale) -> u64 {
        match self {
            ScaleKnob::Fig4File => scale.fig4_file,
            ScaleKnob::Fig5File => scale.fig5_file,
            ScaleKnob::Fig9Total => scale.fig9_total,
            ScaleKnob::Fig11Total => scale.fig11_total,
            ScaleKnob::Fig12Regions => scale.fig12_regions,
        }
    }
}

/// A size/count expression, resolved against the scale preset (and the
/// case's process count) at expansion time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Num {
    /// A literal value.
    Abs {
        /// The value.
        n: u64,
    },
    /// A scale knob, verbatim.
    Knob {
        /// Which knob.
        knob: ScaleKnob,
    },
    /// `clamp(knob / div, min, max)` — e.g. Figure 12 keeps roughly 40
    /// noncontiguous calls per point at any scale.
    KnobScaled {
        /// Which knob.
        knob: ScaleKnob,
        /// Divisor applied to the knob.
        div: u64,
        /// Lower clamp bound.
        min: u64,
        /// Upper clamp bound.
        max: u64,
    },
    /// `knob / processes` — e.g. Figure 9 splits a fixed total over the
    /// case's process count.
    KnobPerProcess {
        /// Which knob.
        knob: ScaleKnob,
    },
}

impl Num {
    /// Resolve to a concrete value for a case with `processes` processes.
    pub fn resolve(&self, scale: &Scale, processes: usize) -> u64 {
        match *self {
            Num::Abs { n } => n,
            Num::Knob { knob } => knob.get(scale),
            Num::KnobScaled {
                knob,
                div,
                min,
                max,
            } => (knob.get(scale) / div.max(1)).clamp(min, max),
            Num::KnobPerProcess { knob } => knob.get(scale) / processes.max(1) as u64,
        }
    }
}

// Named by benchmark/; goes with ROADMAP item 4.
pub use bps_topology::Storage as StorageSpec;
// Named by benchmark/; goes with ROADMAP item 4.
pub use bps_topology::Layout as LayoutSpec;

/// Data sieving configuration (mirrors `SievingConfig` presets).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SievingSpec {
    /// ROMIO's defaults (sieving enabled).
    RomioDefault,
    /// Sieving disabled.
    Disabled,
}

/// Middleware retry policy (mirrors `RetryPolicy`).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum RetrySpec {
    /// `RetryPolicy::default()`.
    Default,
    /// An explicit bounded-backoff policy.
    Custom {
        /// Attempts before a request is abandoned.
        max_attempts: u32,
        /// First backoff, microseconds.
        base_backoff_us: u64,
        /// Backoff ceiling, microseconds.
        max_backoff_us: u64,
    },
}

/// Transient device error injection.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum DeviceErrorSpec {
    /// The same error probability on every server.
    Uniform {
        /// Error probability per device grant.
        rate: f64,
    },
    /// Extra error probability on one server (a failing disk).
    Server {
        /// The hot server.
        server: usize,
        /// Extra error probability on that server.
        rate: f64,
    },
}

/// Lossy-link injection.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LinkLossSpec {
    /// Loss probability per transfer.
    pub rate: f64,
    /// Per-loss retransmit delay, milliseconds.
    pub retransmit_delay_ms: u64,
}

/// A periodic train of pause-and-recover outages on one server: `width`
/// ms down starting `phase` ms into every `period` ms cycle, for
/// `cycles` cycles (offset 10 ms like the hand-built plans).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct OutageTrainSpec {
    /// The paused server.
    pub server: usize,
    /// Outage width, milliseconds.
    pub width_ms: u64,
    /// Cycle period, milliseconds.
    pub period_ms: u64,
    /// Offset into each cycle, milliseconds.
    pub phase_ms: u64,
    /// Number of cycles.
    pub cycles: u64,
}

/// A declarative fault plan (mirrors `FaultPlan`, built in field order).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FaultSpec {
    /// Seed of the injector's private randomness.
    pub seed: u64,
    /// Permanent stragglers, one per entry.
    pub slowdowns: Vec<bps_sim::fault::Slowdown>,
    /// Device error rates, applied in order.
    pub device_errors: Vec<DeviceErrorSpec>,
    /// Lossy-link configuration.
    pub link_loss: Option<LinkLossSpec>,
    /// Outage trains.
    pub outage_trains: Vec<OutageTrainSpec>,
}

impl FaultSpec {
    /// An empty plan skeleton with the given injector seed.
    pub fn seeded(seed: u64) -> Self {
        FaultSpec {
            seed,
            slowdowns: Vec::new(),
            device_errors: Vec::new(),
            link_loss: None,
            outage_trains: Vec::new(),
        }
    }
}

/// The workload of a case, possibly parameterized by scale knobs and by
/// per-case grid patches ([`Patch`]).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum WorkloadTemplate {
    /// A fully concrete workload (no knobs; grid patches that target
    /// workload fields are rejected).
    Fixed {
        /// The concrete spec.
        spec: bps_workloads::WorkloadSpec,
    },
    /// An IOzone run; `record_size` and `processes` are patchable.
    Iozone {
        /// Operation under test.
        mode: bps_workloads::iozone::IozoneMode,
        /// Bytes per file.
        file_size: Num,
        /// Record size, bytes.
        record_size: Num,
        /// Process count (1 = single mode).
        processes: usize,
        /// Seed for the random modes.
        seed: u64,
    },
    /// An IOR shared-file run; `processes` is patchable.
    IorShared {
        /// Total bytes of the shared file.
        file_size: Num,
        /// Fixed transfer size, bytes.
        transfer_size: u64,
        /// Write instead of read.
        write: bool,
        /// MPI process count.
        processes: usize,
    },
    /// An HPIO noncontiguous run; `region_spacing` and `processes` are
    /// patchable.
    Hpio {
        /// Total region count.
        region_count: Num,
        /// Bytes per region.
        region_size: u64,
        /// Bytes of hole between regions.
        region_spacing: Num,
        /// Regions per noncontiguous call.
        regions_per_call: Num,
        /// MPI process count.
        processes: usize,
        /// Collective (two-phase) reads.
        collective: bool,
    },
    /// The Set 5 mixed checkpoint-style workload, sized from
    /// `Scale::fig9_total` exactly like the hand-built degraded-mode
    /// sweep.
    DegradedMix,
}

/// Per-case overrides applied by one grid cell on top of the base
/// template. Every field is optional; `None` leaves the base value.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Patch {
    /// Override the storage configuration.
    pub storage: Option<StorageSpec>,
    /// Override the layout policy.
    pub layout: Option<LayoutSpec>,
    /// Override the workload's record size (IOzone only).
    pub record_size: Option<u64>,
    /// Override the workload's process count (and the client count).
    pub processes: Option<usize>,
    /// Override the workload's region spacing (HPIO only).
    pub region_spacing: Option<u64>,
    /// Override the fault plan.
    pub fault: Option<FaultSpec>,
    /// Override the component graph (omitted on the wire when unset).
    #[serde(skip_serializing_if = "Option::is_none")]
    pub topology: Option<bps_topology::TopologySpec>,
}

impl Patch {
    /// The no-op patch.
    pub fn none() -> Self {
        Patch {
            storage: None,
            layout: None,
            record_size: None,
            processes: None,
            region_spacing: None,
            fault: None,
            topology: None,
        }
    }
}

/// One labelled cell of a grid dimension.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CaseDecl {
    /// The cell's label (joined with `/` across dimensions).
    pub label: String,
    /// The overrides this cell applies.
    pub patch: Patch,
}

impl CaseDecl {
    /// A labelled cell with a patch.
    pub fn new(label: impl Into<String>, patch: Patch) -> Self {
        CaseDecl {
            label: label.into(),
            patch,
        }
    }
}

/// The sweep's case grid: the cross product of its dimensions, expanded
/// row-major (later dimensions vary fastest). Later dimensions' patches
/// override earlier ones on conflicting fields. Every bundled figure is
/// one-dimensional; user scenarios may cross several.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Grid {
    /// The dimensions, each a list of labelled cells.
    pub dims: Vec<Vec<CaseDecl>>,
}

impl Grid {
    /// A one-dimensional grid.
    pub fn single(cases: Vec<CaseDecl>) -> Self {
        Grid { dims: vec![cases] }
    }
}

/// The base case shared by every grid cell. Optional fields default to
/// the hand-built sweeps' conventions: 64 KB default striping, ROMIO
/// sieving defaults, default retry policy, no faults, 5 µs of CPU per
/// op, and one client node per workload process.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CaseTemplate {
    /// Storage under test.
    pub storage: StorageSpec,
    /// The workload.
    pub workload: WorkloadTemplate,
    /// Layout policy; default [`LayoutSpec::DefaultStripe`].
    pub layout: Option<LayoutSpec>,
    /// Sieving configuration; default [`SievingSpec::RomioDefault`].
    pub sieving: Option<SievingSpec>,
    /// Retry policy; default [`RetrySpec::Default`].
    pub retry: Option<RetrySpec>,
    /// Fault plan; default healthy.
    pub fault: Option<FaultSpec>,
    /// Per-op CPU cost, microseconds; default 5.
    pub cpu_per_op_us: Option<u64>,
    /// Client node count; default = the workload's process count.
    pub clients: Option<usize>,
    /// Explicit component graph (`"topology": [...]` in scenario JSON);
    /// default = the prebuilt graph derived from `storage`, which runs
    /// byte-identically to the pre-topology engine. Omitted on the wire
    /// when unset, keeping serialized scenarios byte-identical to the
    /// pre-topology format (the other optionals keep their `null`).
    #[serde(skip_serializing_if = "Option::is_none")]
    pub topology: Option<bps_topology::TopologySpec>,
}

impl CaseTemplate {
    /// A template with every optional knob at its default.
    pub fn new(storage: StorageSpec, workload: WorkloadTemplate) -> Self {
        CaseTemplate {
            storage,
            workload,
            layout: None,
            sieving: None,
            retry: None,
            fault: None,
            cpu_per_op_us: None,
            clients: None,
            topology: None,
        }
    }
}

/// What the sweep reports.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum OutputSpec {
    /// A CC bar chart: the four paper metrics scored against execution
    /// time over the cases.
    Cc,
    /// A detail series: one metric plotted against execution time.
    Detail {
        /// The highlighted metric — any registered metric name
        /// (case-insensitive; see `reproduce metrics`).
        metric: String,
    },
}

/// A Table-1 expectation: the direction the metric's correlation should
/// have over this sweep, and optionally a floor on its normalized CC.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Expect {
    /// Metric name — any registered metric (case-insensitive).
    pub metric: String,
    /// Whether the observed direction should match Table 1.
    pub direction_correct: bool,
    /// Minimum normalized CC (only meaningful with `direction_correct`).
    pub min_normalized: Option<f64>,
}

impl Expect {
    /// Expect the metric to point the right way, at least this strongly.
    pub fn correct(metric: &str, min_normalized: f64) -> Self {
        Expect {
            metric: metric.to_string(),
            direction_correct: true,
            min_normalized: Some(min_normalized),
        }
    }

    /// Expect the right direction with no strength floor.
    pub fn correct_direction(metric: &str) -> Self {
        Expect {
            metric: metric.to_string(),
            direction_correct: true,
            min_normalized: None,
        }
    }

    /// Expect the metric to point the wrong way (the paper's pathologies).
    pub fn wrong(metric: &str) -> Self {
        Expect {
            metric: metric.to_string(),
            direction_correct: false,
            min_normalized: None,
        }
    }
}

/// A cross-metric verdict predicate over the scored figure.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Verdict {
    /// BPS must have the strictly largest |normalized CC| of the four
    /// metrics (the degraded-mode acceptance bar).
    BpsStrictlyHighest,
}

/// A complete sweep description.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Scenario {
    /// Registry name (`reproduce run <name>`).
    pub name: String,
    /// Report title (the `=== ... ===` header line).
    pub title: String,
    /// What to score and print.
    pub output: OutputSpec,
    /// The base case.
    pub base: CaseTemplate,
    /// The case grid.
    pub grid: Grid,
    /// Registry metric names to compute and report (case-insensitive, any
    /// order; rendered in registry order). Empty — the default, and
    /// omitted from serialized scenarios — means the paper four. Metrics
    /// named by `output` or `expect` are always computed in addition.
    #[serde(default, skip_serializing_if = "Vec::is_empty")]
    pub metrics: Vec<String>,
    /// Per-unit wall-clock deadline in milliseconds. A `(case, seed)` unit
    /// running longer is detached and reported as a `Timeout` failure
    /// instead of hanging the sweep. `None` — the default, and omitted
    /// from serialized scenarios — means no scenario-level deadline;
    /// when set it outranks the CLI's `--deadline-ms`. Like that flag it
    /// must be positive: expansion rejects 0.
    #[serde(skip_serializing_if = "Option::is_none")]
    pub deadline_ms: Option<u64>,
    /// Table-1 expected directions, checked by tests and `reproduce check`.
    pub expect: Vec<Expect>,
    /// Optional cross-metric verdict.
    pub verdict: Option<Verdict>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn knobs_read_the_scale() {
        let s = Scale::tiny();
        assert_eq!(ScaleKnob::Fig4File.get(&s), s.fig4_file);
        assert_eq!(ScaleKnob::Fig12Regions.get(&s), s.fig12_regions);
    }

    #[test]
    fn num_expressions_resolve() {
        let s = Scale::tiny();
        assert_eq!(Num::Abs { n: 7 }.resolve(&s, 1), 7);
        assert_eq!(
            Num::Knob {
                knob: ScaleKnob::Fig5File
            }
            .resolve(&s, 3),
            s.fig5_file
        );
        assert_eq!(
            Num::KnobPerProcess {
                knob: ScaleKnob::Fig9Total
            }
            .resolve(&s, 4),
            s.fig9_total / 4
        );
        // Fig. 12's regions-per-call rule.
        assert_eq!(
            Num::KnobScaled {
                knob: ScaleKnob::Fig12Regions,
                div: 40,
                min: 256,
                max: 4096
            }
            .resolve(&s, 1),
            (s.fig12_regions / 40).clamp(256, 4096)
        );
    }

    #[test]
    fn scenario_json_round_trips() {
        let sc = Scenario {
            name: "demo".into(),
            title: "Demo sweep".into(),
            output: OutputSpec::Detail {
                metric: "BPS".into(),
            },
            base: CaseTemplate::new(
                StorageSpec::Pvfs { servers: 4 },
                WorkloadTemplate::Iozone {
                    mode: bps_workloads::iozone::IozoneMode::SeqRead,
                    file_size: Num::Knob {
                        knob: ScaleKnob::Fig5File,
                    },
                    record_size: Num::Abs { n: 4096 },
                    processes: 1,
                    seed: 0,
                },
            ),
            grid: Grid::single(vec![
                CaseDecl::new("a", Patch::none()),
                CaseDecl::new(
                    "b",
                    Patch {
                        record_size: Some(65536),
                        ..Patch::none()
                    },
                ),
            ]),
            metrics: Vec::new(),
            deadline_ms: None,
            expect: vec![Expect::correct("BPS", 0.7), Expect::wrong("IOPS")],
            verdict: Some(Verdict::BpsStrictlyHighest),
        };
        let json = serde_json::to_string_pretty(&sc).unwrap();
        let back: Scenario = serde_json::from_str(&json).unwrap();
        assert_eq!(back, sc);
        // The empty defaults are omitted on the wire, so pre-existing
        // scenario files (and their goldens) are untouched.
        assert!(!json.contains("\"metrics\""));
        assert!(!json.contains("\"deadline_ms\""));
        let mut with_metrics = sc.clone();
        with_metrics.metrics = vec!["BPS".into(), "p99".into()];
        let json = serde_json::to_string_pretty(&with_metrics).unwrap();
        let back: Scenario = serde_json::from_str(&json).unwrap();
        assert_eq!(back, with_metrics);
        let mut with_deadline = sc.clone();
        with_deadline.deadline_ms = Some(2500);
        let json = serde_json::to_string_pretty(&with_deadline).unwrap();
        assert!(json.contains("\"deadline_ms\": 2500"));
        let back: Scenario = serde_json::from_str(&json).unwrap();
        assert_eq!(back, with_deadline);
    }
}
