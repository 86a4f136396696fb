//! Set 5 — degraded-mode experiments: the four metrics under faults.
//!
//! The paper scores IOPS/Bandwidth/ARPT/BPS on a healthy cluster; this
//! set re-runs the scoring while the cluster is sick. Each *fault
//! variety* (straggler server, transient device errors, lossy links,
//! server outages) is swept over five intensity levels — level 0 is the
//! healthy cluster — and the four metrics are correlated against
//! application execution time exactly as in Figures 4–12.
//!
//! The workload mixes 1 MB writes with 64 KB reads so each rival
//! metric's failure mode can surface:
//!
//! * **Bandwidth** counts file-system bytes: a 16-chunk write that fails
//!   on its 12th chunk still moved 11 chunks of data, every retry moves
//!   them again, and degraded-stripe read failover re-reads at double
//!   width — recovery traffic inflates the numerator exactly when the
//!   application is receiving less.
//! * **ARPT** only averages requests that *complete*: a request whose
//!   retries exhaust leaves retry records but no application record, so
//!   the slowest requests are censored from the mean right when the
//!   cluster is at its worst (survivorship bias).
//! * **IOPS** counts operations, and faults abandon large requests far
//!   more often than small ones (more chunks, more failure
//!   opportunities), so the surviving op mix drifts smaller as intensity
//!   rises and the op count barely reflects the damage.
//! * **BPS** counts delivered application blocks over overlapped
//!   application I/O time, which keeps tracking what the application
//!   actually experienced.

use crate::figures::common::CcFigure;
use crate::scale::Scale;
use crate::scenario::spec::{
    CaseDecl, CaseTemplate, DeviceErrorSpec, FaultSpec, Grid, LayoutSpec, LinkLossSpec,
    OutageTrainSpec, OutputSpec, Patch, RetrySpec, Scenario, SlowdownSpec, StorageSpec,
    WorkloadTemplate,
};
use bps_core::extent::Extent;
use bps_workloads::spec::{AppOp, OpStream, Workload};

/// I/O servers in every degraded-mode case.
pub const SERVERS: usize = 4;
/// Application processes (one per client node).
pub const PROCESSES: usize = 4;

/// The large request of each workload round (a write: 16 stripe chunks,
/// each a failure opportunity, and no degraded-read failover to absorb
/// them).
const LARGE_WRITE: u64 = 1 << 20;
/// The small request size (reads; failover-protected).
const SMALL_IO: u64 = 64 << 10;
/// Small requests per round.
const SMALLS_PER_ROUND: u64 = 4;
/// Bytes one round advances through the file.
const ROUND_BYTES: u64 = LARGE_WRITE + SMALLS_PER_ROUND * SMALL_IO;

/// A mixed-size checkpoint-style workload: each process walks its own
/// file in rounds of one 1 MB write followed by four 64 KB reads.
#[derive(Debug, Clone)]
pub struct DegradedMix {
    processes: usize,
    rounds: u64,
}

impl DegradedMix {
    /// Size the workload from a scale preset (total bytes across all
    /// processes ≈ `scale.fig9_total / 2`; the sweep runs 4 varieties × 5
    /// levels, so each case is kept lighter than a Set 3 case).
    pub fn from_scale(scale: &Scale) -> Self {
        let per_proc = (scale.fig9_total / 2) / PROCESSES as u64;
        DegradedMix {
            processes: PROCESSES,
            rounds: (per_proc / ROUND_BYTES).max(4),
        }
    }
}

impl Workload for DegradedMix {
    fn name(&self) -> &'static str {
        "degraded-mix"
    }
    fn processes(&self) -> usize {
        self.processes
    }
    fn file_sizes(&self) -> Vec<u64> {
        vec![self.rounds * ROUND_BYTES; self.processes]
    }
    fn stream(&self, pid: usize) -> OpStream {
        let rounds = self.rounds;
        Box::new((0..rounds).flat_map(move |r| {
            let base = r * ROUND_BYTES;
            let mut ops = Vec::with_capacity(1 + SMALLS_PER_ROUND as usize);
            ops.push(AppOp::Write {
                file: pid,
                extent: Extent::new(base, LARGE_WRITE),
            });
            for s in 0..SMALLS_PER_ROUND {
                let offset = base + LARGE_WRITE + s * SMALL_IO;
                ops.push(AppOp::Read {
                    file: pid,
                    extent: Extent::new(offset, SMALL_IO),
                });
            }
            ops
        }))
    }
}

/// One fault variety of the Set 5 sweep. Each variety sweeps *shapes* of
/// one fault type — concentrated on one server, spread over two, uniform
/// over all — rather than a single monotone intensity knob, the same way
/// Set 1 sweeps device types and Set 3 sweeps process counts. Execution
/// time responds to the *worst* component (the straggler, the hot disk,
/// the longest outage) while per-op averages respond to the *mean*
/// damage, and that asymmetry is exactly what separates the metrics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Slowdown windows: one big straggler vs several mild ones.
    Straggler,
    /// Transient device errors: one failing disk vs uniform bit-rot.
    DeviceErrors,
    /// Lossy links: rate/delay combinations.
    LinkLoss,
    /// Pause-and-recover outages: frequent-short vs rare-long windows.
    Outages,
}

impl FaultKind {
    /// All varieties, in Table-2-row order.
    pub fn all() -> [FaultKind; 4] {
        [
            FaultKind::Straggler,
            FaultKind::DeviceErrors,
            FaultKind::LinkLoss,
            FaultKind::Outages,
        ]
    }

    /// Display name.
    pub fn name(&self) -> &'static str {
        match self {
            FaultKind::Straggler => "straggler",
            FaultKind::DeviceErrors => "device-err",
            FaultKind::LinkLoss => "link-loss",
            FaultKind::Outages => "outage",
        }
    }

    /// The labelled fault shapes of this variety's cases, healthy first
    /// (`None` = no plan). The plan seed is derived from the variety so
    /// two varieties never share an injector stream.
    pub fn shapes(&self) -> Vec<(String, Option<FaultSpec>)> {
        let base = || FaultSpec::seeded(0x5E7_5000 + *self as u64);
        let slow = |server: usize, factor: f64| SlowdownSpec { server, factor };
        // Periodic outages on one server: `width` ms down starting `phase`
        // ms into every `period` ms cycle. Blanketing a long horizon keeps
        // the duty cycle meaningful at any scale preset's run length.
        let outages = |server: usize, width: u64, period: u64, phase: u64| {
            let mut spec = base();
            spec.outage_trains = vec![OutageTrainSpec {
                server,
                width_ms: width,
                period_ms: period,
                phase_ms: phase,
                cycles: 4000,
            }];
            spec
        };
        let slowed = |windows: Vec<SlowdownSpec>| {
            let mut spec = base();
            spec.slowdowns = windows;
            spec
        };
        let errors = |rates: Vec<DeviceErrorSpec>| {
            let mut spec = base();
            spec.device_errors = rates;
            spec
        };
        let lossy = |rate: f64, delay_ms: u64| {
            let mut spec = base();
            spec.link_loss = Some(LinkLossSpec {
                rate,
                retransmit_delay_ms: delay_ms,
            });
            spec
        };
        let healthy = ("healthy".to_string(), None);
        let shaped: Vec<(&str, FaultSpec)> = match self {
            FaultKind::Straggler => vec![
                (
                    "all-x1.5",
                    slowed((0..SERVERS).map(|s| slow(s, 1.5)).collect()),
                ),
                ("one-x2.5", slowed(vec![slow(0, 2.5)])),
                ("two-x2.0", slowed(vec![slow(0, 2.0), slow(1, 2.0)])),
                ("one-x4.0", slowed(vec![slow(0, 4.0)])),
            ],
            FaultKind::DeviceErrors => vec![
                (
                    "uni-.05",
                    errors(vec![DeviceErrorSpec::Uniform { rate: 0.05 }]),
                ),
                (
                    "hot1-.65",
                    errors(vec![DeviceErrorSpec::Server {
                        server: 0,
                        rate: 0.65,
                    }]),
                ),
                (
                    "hot2-.40",
                    errors(vec![
                        DeviceErrorSpec::Server {
                            server: 0,
                            rate: 0.40,
                        },
                        DeviceErrorSpec::Server {
                            server: 1,
                            rate: 0.40,
                        },
                    ]),
                ),
                (
                    "uni-.15",
                    errors(vec![DeviceErrorSpec::Uniform { rate: 0.15 }]),
                ),
            ],
            FaultKind::LinkLoss => vec![
                ("p.01-d8", lossy(0.01, 8)),
                ("p.04-d2", lossy(0.04, 2)),
                ("p.04-d8", lossy(0.04, 8)),
                ("p.10-d4", lossy(0.10, 4)),
            ],
            FaultKind::Outages => vec![
                // Short windows are ridden out (duration inflation, no
                // censoring); 60 ms windows outlast the ~57 ms write-retry
                // span and abandon the write caught inside, so block damage
                // accelerates down the list while execution time grows.
                ("freq-8ms", outages(1, 8, 64, 40)),
                ("one-60ms", outages(1, 60, 480, 30)),
                ("two-60ms", outages(1, 60, 240, 30)),
                ("many-60ms", outages(1, 60, 110, 30)),
            ],
        };
        std::iter::once(healthy)
            .chain(shaped.into_iter().map(|(l, p)| (l.to_string(), Some(p))))
            .collect()
    }

    /// File layout for this variety's cases. Server-locus varieties pin
    /// each process's file to its own server (the Set 3a layout) so a
    /// concentrated fault degrades one process while the others stay
    /// healthy — the asymmetry per-op averages dilute away. Link loss is
    /// uniform over the fabric, so those cases stripe normally.
    pub fn layout(&self) -> LayoutSpec {
        match self {
            FaultKind::LinkLoss => LayoutSpec::DefaultStripe,
            _ => LayoutSpec::PinnedPerFile,
        }
    }

    /// Middleware retry policy for this variety's cases. Outages keep the
    /// retry budget shallow — a failed 1 MB write pays its full payload
    /// transfer before the refusal, so four attempts span roughly 43 ms:
    /// windows shorter than that are ridden out with inflated durations,
    /// longer ones exhaust the budget and abandon the request. Error
    /// varieties keep the backoff tight so retry inflation stays in
    /// proportion to the damage.
    pub fn retry(&self) -> RetrySpec {
        match self {
            FaultKind::Outages => RetrySpec::Custom {
                max_attempts: 3,
                base_backoff_us: 500,
                max_backoff_us: 4_000,
            },
            FaultKind::DeviceErrors => RetrySpec::Custom {
                max_attempts: 4,
                base_backoff_us: 300,
                max_backoff_us: 3_000,
            },
            _ => RetrySpec::Default,
        }
    }

    /// This variety's sweep as data.
    pub fn scenario(&self) -> Scenario {
        let mut base = CaseTemplate::new(
            StorageSpec::Pvfs { servers: SERVERS },
            WorkloadTemplate::DegradedMix,
        );
        base.layout = Some(self.layout());
        base.retry = Some(self.retry());
        Scenario {
            name: format!("faults-{}", self.name()),
            title: format!("Set 5 ({}): CC across fault shapes", self.name()),
            output: OutputSpec::Cc,
            base,
            grid: Grid::single(
                self.shapes()
                    .into_iter()
                    .map(|(label, fault)| {
                        CaseDecl::new(
                            label,
                            Patch {
                                fault,
                                ..Patch::none()
                            },
                        )
                    })
                    .collect(),
            ),
            metrics: Vec::new(),
            deadline_ms: None,
            expect: Vec::new(),
            verdict: None,
        }
    }
}

/// Whether BPS has the strictly largest |CC| of the four metrics in a
/// variety's figure (the acceptance bar for the degraded-mode claim).
pub fn bps_strictly_best(fig: &CcFigure) -> bool {
    let Some(bps) = fig.normalized("BPS") else {
        return false;
    };
    ["IOPS", "BW", "ARPT"]
        .iter()
        .all(|m| match fig.normalized(m) {
            Some(cc) => bps.abs() > cc.abs(),
            None => true,
        })
}

/// The set's verdict line over its varieties' figures: under which
/// varieties BPS has the strictly highest |CC|.
pub fn verdict(figures: &[(FaultKind, CcFigure)]) -> String {
    let winners: Vec<&str> = figures
        .iter()
        .filter(|(_, fig)| bps_strictly_best(fig))
        .map(|(kind, _)| kind.name())
        .collect();
    format!(
        "BPS has the strictly highest |CC| under {} of {} fault varieties: {}\n",
        winners.len(),
        figures.len(),
        if winners.is_empty() {
            "none".to_string()
        } else {
            winners.join(", ")
        }
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::figures::common::run_tiny;
    use crate::scenario::engine;

    /// Every variety's figure at `--tiny`, in [`FaultKind::all`] order.
    fn figures() -> Vec<(FaultKind, CcFigure)> {
        FaultKind::all()
            .into_iter()
            .map(|kind| (kind, run_tiny(&kind.scenario()).into_cc()))
            .collect()
    }

    #[test]
    fn workload_shape() {
        let w = DegradedMix {
            processes: 2,
            rounds: 3,
        };
        assert_eq!(w.file_sizes(), vec![3 * ROUND_BYTES, 3 * ROUND_BYTES]);
        let ops: Vec<AppOp> = w.stream(1).collect();
        assert_eq!(ops.len(), 3 * (1 + SMALLS_PER_ROUND as usize));
        // One large write per round, everything else reads, all on file 1.
        let writes = ops
            .iter()
            .filter(|o| matches!(o, AppOp::Write { file: 1, .. }))
            .count();
        assert_eq!(writes, 3);
        assert!(ops.iter().all(|o| matches!(
            o,
            AppOp::Read { file: 1, .. } | AppOp::Write { file: 1, .. }
        )));
        let total: u64 = ops.iter().map(|o| o.required_bytes()).sum();
        assert_eq!(total, 3 * ROUND_BYTES);
    }

    #[test]
    fn first_case_is_the_healthy_cluster() {
        for kind in FaultKind::all() {
            let shapes = kind.shapes();
            // One healthy case and four fault shapes.
            assert_eq!(shapes.len(), 5, "{}", kind.name());
            assert!(shapes[0].1.is_none(), "{}", kind.name());
            for (label, spec) in &shapes[1..] {
                let plan = engine::build_fault(spec.as_ref().unwrap());
                assert_ne!(plan, Default::default(), "{}/{label}", kind.name());
            }
        }
    }

    #[test]
    fn faults_lengthen_execution_time() {
        // Every faulted shape runs longer than its variety's healthy case.
        for (kind, fig) in figures() {
            let pts = &fig.cases;
            for p in &pts[1..] {
                assert!(
                    p.exec_s > pts[0].exec_s,
                    "{}/{}: {pts:?}",
                    kind.name(),
                    p.label
                );
            }
        }
    }

    #[test]
    fn bps_highest_under_at_least_two_fault_types() {
        // The acceptance bar: |CC(BPS)| strictly highest under ≥ 2
        // distinct fault varieties.
        let figures = figures();
        let winners: Vec<&str> = figures
            .iter()
            .filter(|(_, fig)| bps_strictly_best(fig))
            .map(|(kind, _)| kind.name())
            .collect();
        assert!(
            winners.len() >= 2,
            "BPS strictly best under only {winners:?}:\n{}",
            figures
                .iter()
                .map(|(_, f)| format!("{f}"))
                .collect::<Vec<_>>()
                .join("\n")
        );
    }
}
