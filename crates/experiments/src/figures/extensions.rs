//! Extension experiment (the paper's future work): "we will adopt and
//! evaluate different I/O optimization mechanisms and their combinations
//! in terms of overall I/O system performance."
//!
//! The study is one scenario, [`scenario`]: it sweeps the optimization
//! space — data sieving × read-ahead prefetching × disk scheduling — on a
//! mixed workload (a noncontiguous HPIO phase followed by a sequential
//! IOzone phase), one component graph per combination, and runs through
//! the engine like every bundled sweep. [`render`] ranks every
//! combination by BPS, demonstrating the metric doing the job the paper
//! built it for.

use crate::figures::common::CcFigure;
use crate::runner::CasePoint;
use crate::scale::Scale;
use crate::scenario::spec::{
    CaseDecl, CaseTemplate, Grid, OutputSpec, Patch, Scenario, StorageSpec, WorkloadTemplate,
};
use bps_sim::device::{DeviceNode, DiskSched};
use bps_topology::{NodeSpec, TopologySpec};
use bps_workloads::iozone::IozoneMode;
use bps_workloads::WorkloadSpec;
use std::fmt::Write;

/// I/O servers under every combination.
const SERVERS: usize = 4;
/// Application processes (one per client node).
const PROCESSES: usize = 2;

/// The study as a scenario: one cell per combination, labelled like
/// "S+P-E-", in sieving, then prefetch, then elevator order (later axes
/// vary fastest). Each cell's component graph is
/// `[Sieving, Prefetch?, Pfs, Net, Device]` with a fixed 25 µs of server
/// CPU per request, so the combinations differ only in their
/// optimizations.
pub fn scenario(scale: &Scale) -> Scenario {
    let workload = WorkloadSpec::Sequence {
        parts: vec![
            WorkloadSpec::Hpio {
                region_count: scale.fig12_regions / 8,
                region_size: 256,
                region_spacing: 1024,
                regions_per_call: 512,
                processes: PROCESSES,
                collective: false,
            },
            WorkloadSpec::Iozone {
                mode: IozoneMode::SeqRead,
                file_size: scale.fig12_regions * 256,
                record_size: 64 << 10,
                processes: PROCESSES,
                seed: 0,
            },
        ],
    };
    let sign = |on: bool| if on { "+" } else { "-" };
    let mut cells = Vec::with_capacity(8);
    for sieving in [false, true] {
        for prefetch in [false, true] {
            for elevator in [false, true] {
                let mut nodes = vec![NodeSpec::Sieving { enabled: sieving }];
                if prefetch {
                    nodes.push(NodeSpec::Prefetch { window_kb: 128 });
                }
                nodes.extend([
                    NodeSpec::Pfs {
                        servers: SERVERS,
                        server_cpu_us: Some(25),
                    },
                    NodeSpec::Net {
                        loss_rate: None,
                        retransmit_delay_ms: None,
                        record: None,
                    },
                    NodeSpec::Device {
                        device: DeviceNode::Hdd,
                        sched: Some(if elevator {
                            DiskSched::Elevator
                        } else {
                            DiskSched::Fifo
                        }),
                    },
                ]);
                cells.push(CaseDecl::new(
                    format!("S{}P{}E{}", sign(sieving), sign(prefetch), sign(elevator)),
                    Patch {
                        topology: Some(TopologySpec::new(nodes)),
                        ..Patch::none()
                    },
                ));
            }
        }
    }
    Scenario {
        name: "extensions".to_string(),
        title: "Extension: optimization combinations ranked by BPS".to_string(),
        output: OutputSpec::Cc,
        base: CaseTemplate::new(
            StorageSpec::Pvfs { servers: SERVERS },
            WorkloadTemplate::Fixed { spec: workload },
        ),
        grid: Grid::single(cells),
        metrics: Vec::new(),
        deadline_ms: None,
        expect: Vec::new(),
        verdict: None,
    }
}

/// The cases in ascending `key` order, stably (grid order breaks exact
/// ties), a NaN — a failed case — last.
fn ranked(fig: &CcFigure, key: fn(&CasePoint) -> f64) -> Vec<&CasePoint> {
    let mut cases: Vec<&CasePoint> = fig.cases.iter().collect();
    cases.sort_by(|a, b| match (key(a).is_nan(), key(b).is_nan()) {
        (false, false) => key(a).total_cmp(&key(b)),
        (nan_a, nan_b) => nan_a.cmp(&nan_b),
    });
    cases
}

/// The cases best BPS first.
fn by_bps(fig: &CcFigure) -> Vec<&CasePoint> {
    ranked(fig, |p| -p.bps)
}

/// Whether ranking by BPS (descending) ranks like execution time
/// (ascending).
fn bps_ranks_match_exec(fig: &CcFigure) -> bool {
    ranked(fig, |p| p.exec_s)
        .iter()
        .zip(by_bps(fig))
        .all(|(a, b)| a.label == b.label)
}

/// Render the study's scored figure as the ranking table. A case whose
/// every seed failed prints `n/a` with its failure kind.
pub fn render(fig: &CcFigure) -> String {
    let mut out = String::new();
    writeln!(out, "=== {} ===", fig.label).unwrap();
    writeln!(
        out,
        "(S = data sieving, P = prefetch, E = elevator; mixed HPIO+sequential workload)"
    )
    .unwrap();
    writeln!(
        out,
        "{:<8} {:>10} {:>12} {:>12}",
        "combo", "exec(s)", "BPS", "BW(MB/s)"
    )
    .unwrap();
    for p in by_bps(fig) {
        match p.failed {
            Some(kind) => writeln!(out, "{:<8} n/a [{}]", p.label, kind.name()),
            None => writeln!(
                out,
                "{:<8} {:>10.3} {:>12.0} {:>12.1}",
                p.label, p.exec_s, p.bps, p.bw
            ),
        }
        .unwrap();
    }
    writeln!(
        out,
        "\nBPS order matches execution-time order: {}",
        if bps_ranks_match_exec(fig) {
            "yes"
        } else {
            "no (see EXPERIMENTS.md)"
        }
    )
    .unwrap();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::figures::common::run_tiny;
    use crate::scenario::engine::expand;

    fn tiny_figure() -> CcFigure {
        run_tiny(&scenario(&Scale::tiny())).into_cc()
    }

    #[test]
    fn all_eight_combos() {
        let cases = expand(&scenario(&Scale::tiny()), &Scale::tiny()).unwrap();
        assert_eq!(cases.len(), 8);
        let labels: std::collections::HashSet<&str> =
            cases.iter().map(|c| c.label.as_str()).collect();
        assert_eq!(labels.len(), 8);
        assert_eq!(cases[0].label, "S-P-E-");
        assert_eq!(cases[7].label, "S+P+E+");
        // Every cell runs its own graph.
        assert!(cases.iter().all(|c| c.topology.is_some()));
    }

    #[test]
    fn scenario_round_trips_and_expands_at_every_scale() {
        for scale in [Scale::tiny(), Scale::quick(), Scale::paper()] {
            let sc = scenario(&scale);
            let json = serde_json::to_string_pretty(&sc).unwrap();
            let back: Scenario = serde_json::from_str(&json).unwrap();
            assert_eq!(back, sc);
            assert_eq!(expand(&back, &scale).unwrap().len(), 8);
        }
    }

    #[test]
    fn sieving_dominates_on_this_workload() {
        let fig = tiny_figure();
        let ranked = by_bps(&fig);
        assert_eq!(ranked.len(), 8);
        // The best combination uses sieving (the noncontiguous phase is
        // hostile without it), and every sieving combo beats every
        // non-sieving combo on BPS.
        let sieving = |p: &CasePoint| p.label.starts_with("S+");
        assert!(sieving(ranked[0]), "{fig:?}");
        let worst_sieving = ranked
            .iter()
            .filter(|p| sieving(p))
            .map(|p| p.bps)
            .fold(f64::MAX, f64::min);
        let best_plain = ranked
            .iter()
            .filter(|p| !sieving(p))
            .map(|p| p.bps)
            .fold(f64::MIN, f64::max);
        assert!(worst_sieving > best_plain, "{fig:?}");
    }

    #[test]
    fn bps_ranking_tracks_execution_time() {
        // The whole point of the metric: ranking optimizations by BPS is
        // ranking them by what the application experiences.
        let fig = tiny_figure();
        assert!(bps_ranks_match_exec(&fig), "{fig:?}");
    }

    #[test]
    fn failed_cases_render_last_as_n_a() {
        let mut fig = tiny_figure();
        let failed = &mut fig.cases[1];
        failed.bps = f64::NAN;
        failed.exec_s = f64::NAN;
        failed.failed = Some(crate::supervise::FailureKind::Panic);
        let shown = render(&fig);
        let rows: Vec<&str> = shown.lines().skip(3).take(8).collect();
        assert_eq!(rows[7], "S-P-E+   n/a [panic]", "{shown}");
    }
}
